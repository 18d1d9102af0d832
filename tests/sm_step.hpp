#ifndef CRISP_TESTS_SM_STEP_HPP
#define CRISP_TESTS_SM_STEP_HPP

#include "core/sm.hpp"

namespace crisp
{

/**
 * One cycle of a bare SM (no Gpu around it): its fabric-facing memory
 * phase as a fabric arbiter with this one SM in its rotation runs it —
 * retry-stage grants until the SM drops out, then LDST grants until it
 * drops out — then step(), then a fold of the SM's stats into its
 * registry (a Gpu folds on read; a bare SM's registry is read directly).
 */
inline void
stepSm(Sm &sm, Cycle now)
{
    sm.beginMemPhase(now);
    while (sm.memPhaseGrantRetry(now)) {
    }
    while (sm.memPhaseGrantLdst(now)) {
    }
    sm.step(now);
    sm.foldStats();
}

} // namespace crisp

#endif // CRISP_TESTS_SM_STEP_HPP
