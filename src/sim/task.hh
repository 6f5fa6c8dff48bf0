/**
 * @file
 * Simulated tasks: programs of primitives executed by the Engine.
 */

#ifndef MCSCOPE_SIM_TASK_HH
#define MCSCOPE_SIM_TASK_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/prim.hh"

namespace mcscope {

/**
 * A simulated process, as data: `prologue`, then `iterations`
 * repetitions of `body`, then `epilogue`.  A straight-line program is
 * just a prologue.
 *
 * Rendezvous/SyncAll keys inside the body are shifted per iteration
 * (key + iteration * keyStride) so that successive iterations match
 * independently; prologue and epilogue keys are used as written.
 *
 * Engine::addTask() compiles a program into the engine's flat
 * primitive array before run(), so the event loop only ever indexes
 * it: a 10,000-iteration solver costs the memory of one body.
 */
struct TaskProgram
{
    TaskProgram(std::string program_name, std::vector<Prim> pro,
                std::vector<Prim> loop_body = {}, uint64_t iteration_count = 0,
                std::vector<Prim> epi = {}, uint64_t key_stride = 1ULL << 32)
        : name(std::move(program_name)),
          prologue(std::move(pro)),
          body(std::move(loop_body)),
          iterations(iteration_count),
          epilogue(std::move(epi)),
          keyStride(key_stride)
    {
    }

    /** Display name for traces, statistics and diagnostics. */
    std::string name;

    std::vector<Prim> prologue;
    std::vector<Prim> body;
    uint64_t iterations;
    std::vector<Prim> epilogue;
    uint64_t keyStride;
};

} // namespace mcscope

#endif // MCSCOPE_SIM_TASK_HH
