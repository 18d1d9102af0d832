#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gpu/gpu.hpp"
#include "integrity/report.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"

namespace crisp
{
namespace
{

// ---------------------------------------------------------------------
// Fabric-starvation regression tests, replaying the divergent-gather
// scenario that exposed the bug: with the memory phase draining SMs in
// fixed id order, low-id SMs flushed their whole retry queue into the
// L2 banks before high-id SMs got a slot, and the worst-case parked
// wait grew monotonically with the SM index — 66,522 cycles on sm 42
// of 46, against ~39 on sm 0. The round-robin arbiter bounds this.
// ---------------------------------------------------------------------

scenario::Scenario
loadRayTraversal()
{
    scenario::Scenario sc;
    scenario::ScenarioError err;
    const std::string path =
        std::string(CRISP_SCENARIO_DIR) + "/ray_traversal.json";
    EXPECT_TRUE(scenario::loadScenarioFile(path, sc, err)) << err.str();
    return sc;
}

TEST(Starvation, RayTraversalRetryWaitIsBounded)
{
    const scenario::Scenario sc = loadRayTraversal();
    Gpu gpu(scenario::gpuConfigFor(sc));
    AddressSpace heap;
    scenario::Materialized mat;
    scenario::submitScenario(sc, gpu, heap, mat);

    // The watchdog's checks include the bounded-stall invariant
    // (kRetryWaitBoundFactor 16 -> 16 * 46 SMs * 32 queue depth =
    // 23,552 cycles at this config): the run must complete without the
    // checker tripping.
    integrity::RunOptions opts;
    opts.checkInterval = 5'000;
    const auto r = gpu.run(50'000'000ull, opts);
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value());

    Cycle max_wait = 0;
    for (const Sm *sm : gpu.constSms()) {
        max_wait = std::max(max_wait, sm->maxFabricRetryWait());
    }
    // The scenario genuinely exercises the retry path...
    EXPECT_GT(max_wait, 0u);
    // ...and the arbiter bounds the worst parked wait. The residual is
    // bank-bandwidth saturation, not arbitration: quadrupling
    // bankBytesPerCycle collapses the wait to ~2.2k cycles while
    // quadrupling DRAM bandwidth changes nothing, i.e. the worst waiter
    // is a queue head taking its fair turn at a saturated bank slice.
    // Measured 15,989 under round-robin vs 66,522 under the fixed-order
    // drain; 20,000 leaves headroom for timing drift while still
    // failing loudly on any return of ordered draining.
    EXPECT_LT(max_wait, 20'000u);
}

} // namespace
} // namespace crisp
