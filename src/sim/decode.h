// Predecoded static instruction table.
//
// Timing a trace record needs its static instruction (`instrAt(r.sid)`: a
// location lookup plus three indirections), its opcode class and its
// source registers. All of that is a pure function of the StaticId, so
// DecodeTable computes it exactly once per static instruction at machine
// construction; the per-record work shrinks to one vector index plus
// stamping the frame id into the prepared register-key templates.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/module.h"
#include "sim/pipeline.h"
#include "trace/record.h"

namespace spt::sim {

/// Dispatch class of a static instruction — the index into the machines'
/// threaded-dispatch tables (computed-goto labels / jump tables). Each
/// class's handler hoists every data-dependent branch the generic
/// makeExecInstr + Pipeline::execute path would re-test per record.
enum class DispatchClass : std::uint8_t {
  kValue = 0,  // pure producer with a live destination (ALU, const, mov)
  kLoad,       // kLoad with a live destination
  kStore,      // kStore
  kCondBr,     // kCondBr
  kJump,       // no timed effects beyond issue: kBr, kNop, dead-dst ops
  kCall,       // kCall
  kRet,        // kRet
  kFork,       // kSptFork
  kKill,       // kSptKill
  kHalloc,     // kHalloc with a live destination
  kGeneric,    // anything unusual; handled by the generic slow path
};
inline constexpr std::size_t kDispatchClassCount = 11;

/// The per-StaticId skeleton of an ExecInstr: everything except the
/// frame-qualified register keys, the memory address, and the branch
/// direction, which come from the dynamic record.
struct DecodedInstr {
  /// The full static instruction, for emulation-only fields (imm, callee,
  /// args, targets). Points into the module the table was built from.
  const ir::Instr* instr = nullptr;
  ir::Opcode op = ir::Opcode::kNop;
  std::uint8_t klass = static_cast<std::uint8_t>(DispatchClass::kGeneric);
  std::uint32_t base_latency = 1;
  std::uint32_t src_count = 0;
  std::uint32_t src_regs[4] = {0, 0, 0, 0};
  std::uint32_t dst_reg = ir::Reg::kInvalidIndex;  // invalid = no timed dst
  std::uint32_t callee_params = 0;  // kCall: the callee's parameter count
  bool is_load = false;
  bool is_store = false;
  bool is_cond_branch = false;
};

/// StaticId -> DecodedInstr for every instruction of a finalized module.
class DecodeTable {
 public:
  explicit DecodeTable(const ir::Module& module);

  const DecodedInstr& operator[](ir::StaticId sid) const {
    return entries_[sid];
  }

 private:
  std::vector<DecodedInstr> entries_;
};

/// Instantiates the skeleton for one dynamic record: stamps the record's
/// frame into the register-key templates and fills in its memory address
/// (or a non-zero `mem_addr_override`, for speculative emulation whose
/// effective address may differ) and branch outcome.
inline ExecInstr makeExecInstr(const DecodedInstr& d, const trace::Record& r,
                               std::uint64_t mem_addr_override = 0) {
  ExecInstr e;
  e.sid = r.sid;
  e.op = d.op;
  e.base_latency = d.base_latency;
  // regKey(frame, reg) == (frame << 32) + reg.index + 1; hoist the frame
  // part out of the per-source additions.
  const std::uint64_t frame_base =
      (static_cast<std::uint64_t>(r.frame) << 32) + 1;
  for (std::uint32_t i = 0; i < d.src_count; ++i) {
    e.srcs[i] = frame_base + d.src_regs[i];
  }
  e.src_count = d.src_count;
  if (d.dst_reg != ir::Reg::kInvalidIndex) e.dst = frame_base + d.dst_reg;
  if (d.is_load) {
    e.is_load = true;
    e.mem_addr = mem_addr_override != 0 ? mem_addr_override : r.mem_addr;
  } else if (d.is_store) {
    e.is_store = true;
    e.mem_addr = mem_addr_override != 0 ? mem_addr_override : r.mem_addr;
  }
  if (d.is_cond_branch) {
    e.is_cond_branch = true;
    e.taken = r.taken;
  }
  return e;
}

/// Class-specialized variant of makeExecInstr for the threaded-dispatch
/// handlers: with the dispatch class known statically every data-dependent
/// branch folds away. Preconditions (enforced by DecodeTable's
/// classification): kValue/kLoad/kHalloc imply a valid dst_reg. Produces
/// bit-identical ExecInstrs to makeExecInstr for records of its class.
template <DispatchClass K>
inline ExecInstr makeExecInstrFor(const DecodedInstr& d,
                                  const trace::Record& r) {
  ExecInstr e;
  e.sid = r.sid;
  e.op = d.op;
  e.base_latency = d.base_latency;
  const std::uint64_t frame_base =
      (static_cast<std::uint64_t>(r.frame) << 32) + 1;
  for (std::uint32_t i = 0; i < d.src_count; ++i) {
    e.srcs[i] = frame_base + d.src_regs[i];
  }
  e.src_count = d.src_count;
  if constexpr (K == DispatchClass::kValue || K == DispatchClass::kLoad ||
                K == DispatchClass::kHalloc) {
    e.dst = frame_base + d.dst_reg;
  }
  if constexpr (K == DispatchClass::kLoad) {
    e.is_load = true;
    e.mem_addr = r.mem_addr;
  }
  if constexpr (K == DispatchClass::kStore) {
    e.is_store = true;
    e.mem_addr = r.mem_addr;
  }
  if constexpr (K == DispatchClass::kCondBr) {
    e.is_cond_branch = true;
    e.taken = r.taken;
  }
  return e;
}

}  // namespace spt::sim
