#include "sim/baseline.h"

#include <vector>

#include "sim/loop_tracker.h"
#include "support/check.h"
#include "support/error.h"

namespace spt::sim {

BaselineMachine::BaselineMachine(const ir::Module& module,
                                 trace::TraceView trace,
                                 const support::MachineConfig& config)
    : module_(module), trace_(trace), config_(config), decode_(module) {}

MachineResult BaselineMachine::run() {
  MemorySystem memory(config_);
  Pipeline pipe(config_, memory);
  LoopCycleTracker loops(module_);

  // The baseline machine consumed ArchState purely for its call/return
  // plumbing — the callee frame and parameter count on kCall, the caller
  // frame and return destination on kRet — plus the per-record frame
  // check; value and memory reconstruction never influenced baseline
  // timing. This call-stack tracker keeps exactly that (same check, same
  // failure behavior) at a push/pop instead of full frame reconstruction.
  struct FrameEntry {
    trace::FrameId id = 0;
    ir::Reg ret_dst;
  };
  std::vector<FrameEntry> stack;
  stack.reserve(64);
  // Sentinels outside FrameId's 32-bit range: kUnstarted routes the first
  // record to entry-frame creation; kDead makes any record after the entry
  // frame returned fail the frame check, as ArchState's empty-stack check
  // did.
  constexpr std::uint64_t kUnstarted = ~0ull;
  constexpr std::uint64_t kDead = ~0ull - 1;
  std::uint64_t cur_frame = kUnstarted;

  const auto checkFrame = [&](const trace::Record& rec) {
    if (cur_frame == rec.frame) [[likely]] return;
    if (cur_frame == kUnstarted) {
      stack.push_back({rec.frame, ir::Reg{}});
      cur_frame = rec.frame;
      return;
    }
    SPT_CHECK_MSG(
        false, "trace record frame does not match the reconstructed stack");
  };

  const bool budgeted = config_.max_simulated_records != 0 ||
                        config_.max_simulated_cycles != 0;
  const std::size_t n = trace_.size();
  std::size_t i = 0;
  const trace::Record* r = nullptr;
  const DecodedInstr* d = nullptr;
  std::uint64_t fallbacks = 0;

  // Advances to the next kInstr record (handling budget checks and loop
  // markers in passing) and predecodes it. Returns false at end of trace.
  const auto fetch = [&]() -> bool {
    while (i < n) {
      if (budgeted && (i & 1023u) == 0) {
        if (config_.max_simulated_records != 0 &&
            i > config_.max_simulated_records) {
          throw support::SptBudgetExceeded("simulated trace records", i,
                                           config_.max_simulated_records);
        }
        if (config_.max_simulated_cycles != 0 &&
            pipe.cycle() > config_.max_simulated_cycles) {
          throw support::SptBudgetExceeded("simulated cycles", pipe.cycle(),
                                           config_.max_simulated_cycles);
        }
      }
      const trace::Record& rec = trace_[i];
      ++i;
      if (rec.kind == trace::RecordKind::kInstr) [[likely]] {
        r = &rec;
        d = &decode_[rec.sid];
        return true;
      }
      loops.onMarker(rec, pipe.cycle());
    }
    return false;
  };

  // Per-class handlers. Each pairs the class-specialized ExecInstr builder
  // with the matching compile-time executeKnown instantiation, so every
  // data-dependent branch of the generic path is resolved at dispatch.
  const auto doValue = [&] {
    checkFrame(*r);
    pipe.executeKnown<Pipeline::kExecPlain>(
        makeExecInstrFor<DispatchClass::kValue>(*d, *r));
  };
  const auto doLoad = [&] {
    checkFrame(*r);
    pipe.executeKnown<Pipeline::kExecLoad>(
        makeExecInstrFor<DispatchClass::kLoad>(*d, *r));
  };
  const auto doStore = [&] {
    checkFrame(*r);
    pipe.executeKnown<Pipeline::kExecStore>(
        makeExecInstrFor<DispatchClass::kStore>(*d, *r));
  };
  const auto doCondBr = [&] {
    checkFrame(*r);
    pipe.executeKnown<Pipeline::kExecBranch>(
        makeExecInstrFor<DispatchClass::kCondBr>(*d, *r));
  };
  const auto doJump = [&] {
    checkFrame(*r);
    pipe.executeKnown<Pipeline::kExecPlain>(
        makeExecInstrFor<DispatchClass::kJump>(*d, *r));
  };
  const auto doCall = [&] {
    const std::uint64_t done = pipe.executeKnown<Pipeline::kExecPlain>(
        makeExecInstrFor<DispatchClass::kJump>(*d, *r));
    checkFrame(*r);
    stack.push_back({r->callee_frame, d->instr->dst});
    cur_frame = r->callee_frame;
    // Parameters materialize in the callee when the call issues.
    const std::uint64_t base =
        (static_cast<std::uint64_t>(r->callee_frame) << 32) + 1;
    for (std::uint32_t p = 0; p < d->callee_params; ++p) {
      pipe.setRegReady(base + p, done, false);
    }
    ++fallbacks;
  };
  const auto doRet = [&] {
    const std::uint64_t done = pipe.executeKnown<Pipeline::kExecPlain>(
        makeExecInstrFor<DispatchClass::kJump>(*d, *r));
    checkFrame(*r);
    const ir::Reg dst = stack.back().ret_dst;
    stack.pop_back();
    if (!stack.empty()) {
      cur_frame = stack.back().id;
      if (dst.valid()) {
        pipe.setRegReady(Pipeline::regKey(stack.back().id, dst), done, false);
      }
    } else {
      cur_frame = kDead;
    }
    ++fallbacks;
  };
  const auto doGeneric = [&] {
    pipe.execute(makeExecInstr(*d, *r));
    checkFrame(*r);
    ++fallbacks;
  };

#if defined(__GNUC__) || defined(__clang__)
  // Computed-goto threaded dispatch: each handler jumps straight to the
  // next record's handler through a label table indexed by the predecoded
  // dispatch class, giving the host branch predictor one indirect-jump
  // site per handler instead of a single shared switch dispatch point.
  {
    static const void* const kTargets[kDispatchClassCount] = {
        /* kValue   */ &&lbl_value,
        /* kLoad    */ &&lbl_load,
        /* kStore   */ &&lbl_store,
        /* kCondBr  */ &&lbl_condbr,
        /* kJump    */ &&lbl_jump,
        /* kCall    */ &&lbl_call,
        /* kRet     */ &&lbl_ret,
        /* kFork    */ &&lbl_jump,   // timing-wise an ordinary jump here
        /* kKill    */ &&lbl_jump,
        /* kHalloc  */ &&lbl_value,  // producer with a live destination
        /* kGeneric */ &&lbl_generic,
    };
#define SPT_DISPATCH_NEXT()                 \
  do {                                      \
    if (!fetch()) goto lbl_done;            \
    goto* kTargets[d->klass];               \
  } while (0)
    SPT_DISPATCH_NEXT();
  lbl_value:
    doValue();
    SPT_DISPATCH_NEXT();
  lbl_load:
    doLoad();
    SPT_DISPATCH_NEXT();
  lbl_store:
    doStore();
    SPT_DISPATCH_NEXT();
  lbl_condbr:
    doCondBr();
    SPT_DISPATCH_NEXT();
  lbl_jump:
    doJump();
    SPT_DISPATCH_NEXT();
  lbl_call:
    doCall();
    SPT_DISPATCH_NEXT();
  lbl_ret:
    doRet();
    SPT_DISPATCH_NEXT();
  lbl_generic:
    doGeneric();
    SPT_DISPATCH_NEXT();
#undef SPT_DISPATCH_NEXT
  lbl_done:;
  }
#else
  // Portable fallback: a jump-table switch over the same handlers.
  while (fetch()) {
    switch (static_cast<DispatchClass>(d->klass)) {
      case DispatchClass::kValue:
      case DispatchClass::kHalloc:
        doValue();
        break;
      case DispatchClass::kLoad:
        doLoad();
        break;
      case DispatchClass::kStore:
        doStore();
        break;
      case DispatchClass::kCondBr:
        doCondBr();
        break;
      case DispatchClass::kJump:
      case DispatchClass::kFork:
      case DispatchClass::kKill:
        doJump();
        break;
      case DispatchClass::kCall:
        doCall();
        break;
      case DispatchClass::kRet:
        doRet();
        break;
      case DispatchClass::kGeneric:
        doGeneric();
        break;
    }
  }
#endif

  pipe.finish();
  loops.finish(pipe.cycle());

  MachineResult result;
  result.cycles = pipe.cycle();
  result.instrs = pipe.instrsIssued();
  result.breakdown = pipe.breakdown();
  result.loops = loops.stats();
  result.l1d = memory.l1d().stats();
  result.l2 = memory.l2().stats();
  result.l3 = memory.l3().stats();
  result.branch_mispredict_ratio = pipe.predictor().mispredictRatio();
  result.hotpath.dispatch_fallback = fallbacks;
  result.hotpath.dispatch_fast = pipe.instrsIssued() - fallbacks;
  return result;
}

}  // namespace spt::sim
