// persist::Archive field streamer for isa::DynInst, shared by checkpoints
// (ROB entries, fetch queues, replay buffers) and trace files, so all of
// them serialize the same field list in the same order.
#pragma once

#include "common/archive.hpp"
#include "isa/instruction.hpp"

namespace msim::isa {

inline void io_dyn_inst(persist::Archive& ar, DynInst& d) {
  ar.io(d.seq);
  ar.io(d.pc);
  ar.io(d.next_pc);
  ar.io(d.mem_addr);
  ar.io(d.op);
  ar.io(d.dest);
  for (ArchReg& s : d.src) ar.io(s);
  ar.io(d.taken);
}

}  // namespace msim::isa
