#include "trace/trace.h"

#include <cstring>
#include <utility>

#include "support/check.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_TRACE_BUFFER_POSIX 1
#include <sys/mman.h>
#else
#define SPT_TRACE_BUFFER_POSIX 0
#include <cstdlib>
#endif

namespace spt::trace {

std::size_t TraceView::instrCount() const {
  std::size_t n = 0;
  for (const Record& r : *this) {
    if (r.kind == RecordKind::kInstr) ++n;
  }
  return n;
}

namespace {

// 1024 records are 40 KiB, ten 4 KiB pages: all a tiny trace ever maps.
constexpr std::size_t kInitialRecords = 1024;

void* mapBytes(std::size_t bytes) {
#if SPT_TRACE_BUFFER_POSIX
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
#else
  return std::malloc(bytes);
#endif
}

void unmapBytes(void* p, std::size_t bytes) {
#if SPT_TRACE_BUFFER_POSIX
  ::munmap(p, bytes);
#else
  (void)bytes;
  std::free(p);
#endif
}

}  // namespace

TraceBuffer::TraceBuffer(TraceBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

TraceBuffer& TraceBuffer::operator=(TraceBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

TraceBuffer::~TraceBuffer() { release(); }

void TraceBuffer::release() {
  if (data_ != nullptr) unmapBytes(data_, capacity_ * sizeof(Record));
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

void TraceBuffer::grow() {
  const std::size_t capacity =
      capacity_ == 0 ? kInitialRecords : 2 * capacity_;
  const std::size_t bytes = capacity * sizeof(Record);
  void* p = nullptr;
  if (data_ == nullptr) {
    p = mapBytes(bytes);
  } else {
#if defined(__linux__)
    // Moves page-table entries, never records; filled pages stay faulted.
    p = ::mremap(data_, capacity_ * sizeof(Record), bytes, MREMAP_MAYMOVE);
    if (p == MAP_FAILED) p = nullptr;
#else
    p = mapBytes(bytes);
    if (p != nullptr) {
      std::memcpy(p, data_, size_ * sizeof(Record));
      unmapBytes(data_, capacity_ * sizeof(Record));
    }
#endif
  }
  SPT_CHECK_MSG(p != nullptr, "trace buffer mapping failed");
#if defined(MADV_HUGEPAGE)
  // A hint only: where transparent huge pages are off it fails harmlessly.
  (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
  data_ = static_cast<Record*>(p);
  capacity_ = capacity;
}

std::size_t TraceBuffer::instrCount() const { return view().instrCount(); }

namespace {

struct LoopKey {
  FrameId frame;
  ir::StaticId header_sid;
  bool operator==(const LoopKey&) const = default;
};

struct LoopKeyHash {
  std::size_t operator()(const LoopKey& k) const {
    return (static_cast<std::size_t>(k.frame) << 32) ^ k.header_sid;
  }
};

}  // namespace

LoopIndex::LoopIndex(const ir::Module& module, TraceView trace)
    : module_(module) {
  struct OpenEpisode {
    std::size_t episode_index;
    std::vector<std::size_t> pending_forks;
  };
  std::unordered_map<LoopKey, OpenEpisode, LoopKeyHash> open;
  // Region forks awaiting the next execution of their target instruction
  // in the forking frame.
  std::unordered_map<LoopKey, std::vector<std::size_t>, LoopKeyHash>
      pending_regions;

  const auto resolvePending = [&](OpenEpisode& ep, std::size_t start) {
    for (const std::size_t fork : ep.pending_forks) {
      fork_start_.emplace(fork, start);
    }
    ep.pending_forks.clear();
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Record& r = trace[i];
    switch (r.kind) {
      case RecordKind::kIterBegin: {
        const LoopKey key{r.frame, r.sid};
        auto it = open.find(key);
        if (it == open.end()) {
          LoopEpisode episode;
          episode.header_sid = r.sid;
          episode.frame = r.frame;
          episode.iter_begins.push_back(i);
          episode.exit_index = trace.size();
          episodes_.push_back(std::move(episode));
          open.emplace(key, OpenEpisode{episodes_.size() - 1, {}});
        } else {
          episodes_[it->second.episode_index].iter_begins.push_back(i);
          resolvePending(it->second, i);
        }
        break;
      }
      case RecordKind::kLoopExit: {
        const LoopKey key{r.frame, r.sid};
        auto it = open.find(key);
        if (it != open.end()) {
          episodes_[it->second.episode_index].exit_index = i;
          resolvePending(it->second, kNoStart);
          open.erase(it);
        }
        break;
      }
      case RecordKind::kInstr: {
        if (!pending_regions.empty()) {
          const auto rit = pending_regions.find(LoopKey{r.frame, r.sid});
          if (rit != pending_regions.end()) {
            for (const std::size_t fork : rit->second) {
              fork_start_.emplace(fork, i);
            }
            pending_regions.erase(rit);
          }
        }
        if (r.op != ir::Opcode::kSptFork) break;
        const auto& loc = module.locate(r.sid);
        const ir::Function& func = module.function(loc.func);
        const ir::Instr& fork = func.blocks[loc.block].instrs[loc.index];
        const ir::BlockId target = fork.target0;
        SPT_CHECK(target < func.blocks.size());
        const ir::StaticId target_sid =
            func.blocks[target].instrs.front().static_id;
        auto it = open.find(LoopKey{r.frame, target_sid});
        if (it != open.end()) {
          it->second.pending_forks.push_back(i);
        } else {
          // Region fork: wait for the target's next execution.
          pending_regions[LoopKey{r.frame, target_sid}].push_back(i);
        }
        break;
      }
    }
  }

  for (auto& [key, ep] : open) {
    (void)key;
    resolvePending(ep, kNoStart);
  }
  for (auto& [key, forks] : pending_regions) {
    (void)key;
    for (const std::size_t fork : forks) {
      fork_start_.emplace(fork, kNoStart);
    }
  }
}

std::size_t LoopIndex::startOfFork(std::size_t record_index) const {
  const auto it = fork_start_.find(record_index);
  SPT_CHECK_MSG(it != fork_start_.end(), "record is not an indexed fork");
  return it->second;
}

std::string loopNameOf(const ir::Module& module, ir::StaticId header_sid) {
  const auto& loc = module.locate(header_sid);
  const ir::Function& func = module.function(loc.func);
  const std::string& label = func.blocks[loc.block].label;
  return func.name + "." +
         (label.empty() ? "B" + std::to_string(loc.block) : label);
}

std::string LoopIndex::loopName(ir::StaticId header_sid) const {
  return loopNameOf(module_, header_sid);
}

}  // namespace spt::trace
