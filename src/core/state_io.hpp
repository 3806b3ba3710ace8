// Shared persist::Archive field streamer for the scheduler's instruction
// records (issue queue, dispatch buffers, DAB), so every holder serializes
// the same field list in the same order.  isa::io_dyn_inst
// (isa/instruction_io.hpp) is its counterpart for the dynamic instructions.
#pragma once

#include "common/archive.hpp"
#include "core/sched_types.hpp"

namespace msim::core {

inline void io_sched_inst(persist::Archive& ar, SchedInst& si) {
  ar.io(si.tid);
  ar.io(si.seq);
  ar.io(si.op);
  for (PhysReg& s : si.src) ar.io(s);
  ar.io(si.dest);
}

}  // namespace msim::core
