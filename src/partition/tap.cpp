#include "partition/tap.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "telemetry/sink.hpp"

namespace crisp
{

TapController::TapController(const TapConfig &cfg, Gpu &gpu)
    : cfg_(cfg), nextEpoch_(cfg.epoch)
{
    gfx_.hitsAtPos.assign(cfg_.maxLruPos, 0);
    compute_.hitsAtPos.assign(cfg_.maxLruPos, 0);

    // Subscribe the utility monitors to every L2 bank access.
    gpu.l2().setAccessListener([this](StreamId stream, Addr line, bool hit,
                                      uint32_t lru_pos) {
        (void)line;
        Umon *mon = nullptr;
        if (stream == cfg_.gfxStream) {
            mon = &gfx_;
        } else if (stream == cfg_.computeStream) {
            mon = &compute_;
        } else {
            return;
        }
        mon->accesses++;
        if (hit) {
            mon->hits++;
            const uint32_t pos = std::min(lru_pos, cfg_.maxLruPos - 1);
            mon->hitsAtPos[pos]++;
        }
    });

    // Start from an even split.
    const uint32_t sets = gpu.l2().config().bankGeometry.numSets();
    gfxSets_ = sets / 2;
    computeSets_ = sets - gfxSets_;
    gpu.l2().setStreamSetWindow(cfg_.gfxStream, 0, gfxSets_);
    gpu.l2().setStreamSetWindow(cfg_.computeStream, gfxSets_, computeSets_);
}

void
TapController::repartition(Gpu &gpu, Cycle now)
{
    const uint32_t sets = gpu.l2().config().bankGeometry.numSets();

    double u_gfx = gfx_.utility();
    double u_cmp = compute_.utility();

    // TLP-aware correction: a stream whose access rate is negligible next
    // to the other's cannot convert cache capacity into performance;
    // clamp it to the minimum allocation.
    const double acc_gfx = static_cast<double>(gfx_.accesses);
    const double acc_cmp = static_cast<double>(compute_.accesses);
    if (acc_cmp < cfg_.accessRatioFloor * acc_gfx) {
        u_cmp = 0.0;
    }
    if (acc_gfx < cfg_.accessRatioFloor * acc_cmp) {
        u_gfx = 0.0;
    }

    uint32_t gfx_sets;
    if (u_gfx + u_cmp <= 0.0) {
        gfx_sets = sets / 2;
    } else {
        gfx_sets = static_cast<uint32_t>(
            static_cast<double>(sets) * u_gfx / (u_gfx + u_cmp) + 0.5);
    }
    gfx_sets = std::clamp(gfx_sets, 1u, sets - 1);

    if (gfx_sets != gfxSets_) {
        // A shrunk side's lines outside its new window are stranded:
        // they age out via LRU (see CacheComposition::strandedLines).
        gfxSets_ = gfx_sets;
        computeSets_ = sets - gfx_sets;
        gpu.l2().setStreamSetWindow(cfg_.gfxStream, 0, gfxSets_);
        gpu.l2().setStreamSetWindow(cfg_.computeStream, gfxSets_,
                                    computeSets_);
    }
    decisions_.emplace_back(now, gfxSets_);
    if (auto *sink = gpu.telemetry()) {
        sink->emit({now, telemetry::EventKind::TapWindow, 0,
                    cfg_.gfxStream, gfxSets_, computeSets_});
    }

    // Exponential decay so the monitors adapt to phase changes.
    auto decay = [](Umon &m) {
        m.accesses /= 2;
        m.hits /= 2;
        for (auto &h : m.hitsAtPos) {
            h /= 2;
        }
    };
    decay(gfx_);
    decay(compute_);
}

void
TapController::onCycle(Gpu &gpu, Cycle now)
{
    if (now >= nextEpoch_) {
        repartition(gpu, now);
        nextEpoch_ = now + cfg_.epoch;
    }
}

} // namespace crisp
