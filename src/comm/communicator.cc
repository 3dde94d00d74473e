#include "comm/communicator.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"

namespace dtucker {

// Elementwise combine of a received buffer into the local accumulator.
// Takes the Combine enum as int because the enum is protected in
// Communicator; the transports cast from within member scope.
static void ApplyCombine(double* dst, const double* src, std::size_t n,
                         int combine_kind) {
  switch (combine_kind) {
    case 0:  // copy
      std::memcpy(dst, src, n * sizeof(double));
      break;
    case 1:  // add
      for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
      break;
    default:  // max
      for (std::size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
      break;
  }
}

namespace {

// One spin iteration that tells the core we are in a spin-wait loop
// without giving up the timeslice (the sub-microsecond phase of the
// adaptive wait).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Adaptive wait phases: pure spinning covers rendezvous latencies in the
// hundreds of nanoseconds (shm / in-process peers already in the
// collective), yielding covers peers descheduled on a busy box, and the
// exponential sleep bounds CPU burn when a peer is genuinely slow (a rank
// still in its compute phase). The RunContext/timeout poll runs at most
// every kCheckMask+1 spins so the hot phase stays cheap.
constexpr std::uint64_t kSpinPolls = 4096;
constexpr std::uint64_t kYieldPolls = 256;
constexpr std::uint64_t kCheckMask = 63;
constexpr unsigned kMaxSleepUs = 100;

}  // namespace

Status Communicator::WaitStep(AdaptiveWait* w) {
  const std::uint64_t poll = w->polls++;
  if (poll < kSpinPolls) {
    if ((poll & kCheckMask) == kCheckMask) {
      if (ctx_ != nullptr) {
        DT_RETURN_NOT_OK(ctx_->CheckStatus("communicator wait"));
      }
      if (w->timer.Seconds() > timeout_seconds_) {
        return Status::Unavailable(
            "communicator: peer did not arrive within " +
            std::to_string(timeout_seconds_) + "s (rank " +
            std::to_string(rank_) + " of " + std::to_string(size_) + ")");
      }
    }
    CpuRelax();
    return Status::OK();
  }
  if (ctx_ != nullptr) {
    DT_RETURN_NOT_OK(ctx_->CheckStatus("communicator wait"));
  }
  if (w->timer.Seconds() > timeout_seconds_) {
    return Status::Unavailable(
        "communicator: peer did not arrive within " +
        std::to_string(timeout_seconds_) + "s (rank " + std::to_string(rank_) +
        " of " + std::to_string(size_) + ")");
  }
  if (poll < kSpinPolls + kYieldPolls) {
    std::this_thread::yield();
    return Status::OK();
  }
  std::this_thread::sleep_for(std::chrono::microseconds(w->sleep_us));
  w->sleep_us = std::min(kMaxSleepUs, w->sleep_us * 2);
  return Status::OK();
}

void Communicator::FinishWait(const AdaptiveWait& w) {
  if (w.polls == 0) return;
  op_wait_ns_ += w.timer.Seconds() * 1e9;
}

Communicator::OpMetrics::OpMetrics(const std::string& op)
    : wait_gauge(&MetricGauge("comm.wait_ns." + op)),
      wait_histogram(&MetricHistogram("comm.wait_ns." + op)),
      ops(&MetricCounter("comm.ops." + op)) {}

Communicator::OpScope::OpScope(Communicator* comm, const OpMetrics* op)
    : comm_(comm), outermost_(comm->current_op_ == nullptr) {
  if (outermost_) {
    comm_->current_op_ = op;
    comm_->op_wait_ns_ = 0.0;
  }
}

Communicator::OpScope::~OpScope() {
  if (!outermost_) return;
  const OpMetrics& op = *comm_->current_op_;
  // Gauge (cumulative, what bench_report reads) and histogram (the wait
  // *distribution* of this op kind) side by side.
  op.wait_gauge->Add(comm_->op_wait_ns_);
  op.wait_histogram->Record(static_cast<std::uint64_t>(comm_->op_wait_ns_));
  op.ops->Add(1);
  comm_->current_op_ = nullptr;
  comm_->op_wait_ns_ = 0.0;
}

void Communicator::AddReduceNs(double ns) {
  if (reduce_ns_ == nullptr) {
    reduce_ns_ =
        &MetricGauge("comm.rank" + std::to_string(rank_) + ".reduce_ns");
  }
  reduce_ns_->Add(ns);
}

// Binomial reduce to rank 0: at distance d = 1, 2, 4, ... the rank with
// r % 2d == d ships its accumulator to r - d, which combines it on top of
// its own. The combine order at every receiver is ascending distance, a
// function of the rank count alone — the determinism contract of
// AllReduceSum.
Status Communicator::ReduceTree(double* data, std::size_t n, Combine combine) {
  const std::uint64_t op = NextTag();
  int step = 0;
  for (int d = 1; d < size_; d *= 2, ++step) {
    const std::uint64_t tag = op * 64 + static_cast<std::uint64_t>(step);
    if ((rank_ % (2 * d)) == d) {
      return SendTo(rank_ - d, tag, data, n);
    }
    if ((rank_ % (2 * d)) == 0 && rank_ + d < size_) {
      DT_RETURN_NOT_OK(RecvCombine(rank_ + d, tag, data, n, combine));
    }
  }
  return Status::OK();
}

Status Communicator::Broadcast(double* data, std::size_t n, int root) {
  if (size_ == 1) return Status::OK();
  TraceSpan span("comm.broadcast", NextFlowId(), FlowPhase());
  static const OpMetrics op_metrics("broadcast");
  OpScope scope(this, &op_metrics);
  DT_CHECK(root >= 0 && root < size_) << "broadcast root out of range";
  // Rotate so the algorithm always roots at virtual rank 0.
  const int vrank = (rank_ - root + size_) % size_;
  const std::uint64_t op = NextTag();
  int step = 0;
  // Iterative doubling: after the step at distance d, virtual ranks
  // [0, 2d) hold the data.
  for (int d = 1; d < size_; d *= 2, ++step) {
    const std::uint64_t tag = op * 64 + static_cast<std::uint64_t>(step);
    if (vrank < d && vrank + d < size_) {
      const int peer = (vrank + d + root) % size_;
      DT_RETURN_NOT_OK(SendTo(peer, tag, data, n));
    } else if (vrank >= d && vrank < 2 * d) {
      const int peer = (vrank - d + root) % size_;
      DT_RETURN_NOT_OK(RecvCombine(peer, tag, data, n, Combine::kCopy));
    }
  }
  return Status::OK();
}

Status Communicator::AllReduceSum(double* data, std::size_t n) {
  if (size_ == 1) return Status::OK();
  TraceSpan span("comm.allreduce_sum", NextFlowId(), FlowPhase());
  static const OpMetrics op_metrics("allreduce_sum");
  OpScope scope(this, &op_metrics);
  Timer timer;
  DT_RETURN_NOT_OK(ReduceTree(data, n, Combine::kAdd));
  DT_RETURN_NOT_OK(Broadcast(data, n, /*root=*/0));
  static Counter& reduces = MetricCounter("comm.reduces");
  static Counter& bytes = MetricCounter("comm.bytes_reduced");
  reduces.Add(1);
  bytes.Add(static_cast<std::uint64_t>(n) * sizeof(double));
  AddReduceNs(timer.Seconds() * 1e9);
  return Status::OK();
}

Status Communicator::AllReduceMax(double* data, std::size_t n) {
  if (size_ == 1) return Status::OK();
  TraceSpan span("comm.allreduce_max", NextFlowId(), FlowPhase());
  static const OpMetrics op_metrics("allreduce_max");
  OpScope scope(this, &op_metrics);
  Timer timer;
  DT_RETURN_NOT_OK(ReduceTree(data, n, Combine::kMax));
  DT_RETURN_NOT_OK(Broadcast(data, n, /*root=*/0));
  static Counter& reduces = MetricCounter("comm.reduces");
  static Counter& bytes = MetricCounter("comm.bytes_reduced");
  reduces.Add(1);
  bytes.Add(static_cast<std::uint64_t>(n) * sizeof(double));
  AddReduceNs(timer.Seconds() * 1e9);
  return Status::OK();
}

Status Communicator::Barrier() {
  if (size_ == 1) return Status::OK();
  TraceSpan span("comm.barrier", NextFlowId(), FlowPhase());
  static const OpMetrics op_metrics("barrier");
  OpScope scope(this, &op_metrics);
  double token = 0.0;
  DT_RETURN_NOT_OK(ReduceTree(&token, 1, Combine::kAdd));
  return Broadcast(&token, 1, /*root=*/0);
}

Status Communicator::Gather(const double* send,
                            const std::vector<std::size_t>& counts,
                            double* recv, int root) {
  TraceSpan span("comm.gather", NextFlowId(), FlowPhase());
  static const OpMetrics op_metrics("gather");
  OpScope scope(this, &op_metrics);
  DT_CHECK(root >= 0 && root < size_) << "gather root out of range";
  DT_CHECK_EQ(counts.size(), static_cast<std::size_t>(size_))
      << "one count per rank";
  const std::uint64_t op = NextTag();
  if (rank_ != root) {
    const std::size_t mine = counts[static_cast<std::size_t>(rank_)];
    if (mine == 0) return Status::OK();
    const std::uint64_t tag = op * 64 + static_cast<std::uint64_t>(rank_ % 64);
    return SendTo(root, tag, send, mine);
  }
  double* dst = recv;
  for (int peer = 0; peer < size_; ++peer) {
    const std::size_t cnt = counts[static_cast<std::size_t>(peer)];
    if (cnt == 0) continue;
    if (peer == root) {
      std::memcpy(dst, send, cnt * sizeof(double));
    } else {
      const std::uint64_t tag = op * 64 + static_cast<std::uint64_t>(peer % 64);
      DT_RETURN_NOT_OK(RecvCombine(peer, tag, dst, cnt, Combine::kCopy));
    }
    dst += cnt;
  }
  return Status::OK();
}

Status Communicator::AllGatherV(const double* send,
                                const std::vector<std::size_t>& counts,
                                double* recv) {
  TraceSpan span("comm.allgatherv", NextFlowId(), FlowPhase());
  static const OpMetrics op_metrics("allgatherv");
  OpScope scope(this, &op_metrics);
  DT_RETURN_NOT_OK(Gather(send, counts, recv, /*root=*/0));
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  return Broadcast(recv, total, /*root=*/0);
}

Result<std::int64_t> Communicator::EstimateClockOffsetNs(int rounds) {
  if (size_ == 1) return std::int64_t{0};
  // Tags for one peer live in [op*64, op*64+64): 2 per round + 1 for the
  // final offset ship caps the rounds at 31.
  rounds = std::max(1, std::min(rounds, 31));
  static const OpMetrics op_metrics("clock_sync");
  OpScope scope(this, &op_metrics);
  std::int64_t my_offset = 0;
  for (int peer = 1; peer < size_; ++peer) {
    // Every rank draws the tag so the sequence stays in lockstep even for
    // ranks that sit this peer's exchange out.
    const std::uint64_t op = NextTag();
    if (rank_ == 0) {
      double best_rtt = 0.0;
      double best_offset = 0.0;
      bool have_best = false;
      for (int round = 0; round < rounds; ++round) {
        const std::uint64_t tag =
            op * 64 + static_cast<std::uint64_t>(round) * 2;
        // TraceNowNs() values are whole nanoseconds well below 2^53, so
        // the double payload is exact.
        double t0 = static_cast<double>(TraceNowNs());
        DT_RETURN_NOT_OK(SendTo(peer, tag, &t0, 1));
        double t1 = 0.0;
        DT_RETURN_NOT_OK(RecvCombine(peer, tag + 1, &t1, 1, Combine::kCopy));
        const double t2 = static_cast<double>(TraceNowNs());
        const double rtt = t2 - t0;
        // Symmetric-delay model: the peer read its clock rtt/2 after t0,
        // so peer-axis time (t1) maps to root-axis time (t0 + rtt/2); the
        // minimum-RTT round has the least queueing asymmetry.
        if (!have_best || rtt < best_rtt) {
          best_rtt = rtt;
          best_offset = (t0 + rtt * 0.5) - t1;
          have_best = true;
        }
      }
      DT_RETURN_NOT_OK(SendTo(peer, op * 64 + 63, &best_offset, 1));
    } else if (rank_ == peer) {
      for (int round = 0; round < rounds; ++round) {
        const std::uint64_t tag =
            op * 64 + static_cast<std::uint64_t>(round) * 2;
        double t0 = 0.0;
        DT_RETURN_NOT_OK(RecvCombine(0, tag, &t0, 1, Combine::kCopy));
        double t1 = static_cast<double>(TraceNowNs());
        DT_RETURN_NOT_OK(SendTo(0, tag + 1, &t1, 1));
      }
      double offset = 0.0;
      DT_RETURN_NOT_OK(RecvCombine(0, op * 64 + 63, &offset, 1,
                                   Combine::kCopy));
      my_offset = static_cast<std::int64_t>(offset);
    }
  }
  return my_offset;
}

// ---------------------------------------------------------------------------
// In-process transport.
// ---------------------------------------------------------------------------

// One rendezvous slot per ordered (sender, receiver) pair. The protocol is
// a seqlock-style handshake on two atomics: the sender publishes its
// buffer pointer and stores tag+1 into `post` (release); the receiver
// spins for the matching post (acquire), consumes the data, and stores
// tag+1 into `ack` (release); the sender spins for the ack (acquire) and
// clears `post` for the next operation on this pair. Lock-free: no mutex,
// no allocation, one cache line per pair.
struct alignas(64) InProcessSlot {
  std::atomic<std::uint64_t> post{0};
  std::atomic<std::uint64_t> ack{0};
  const double* data = nullptr;
  std::size_t n = 0;
};

struct InProcessGroup::State {
  int size = 0;
  std::vector<InProcessSlot> slots;  // size * size, sender-major.
  InProcessSlot& slot(int sender, int receiver) {
    return slots[static_cast<std::size_t>(sender) *
                     static_cast<std::size_t>(size) +
                 static_cast<std::size_t>(receiver)];
  }
};

namespace {

class InProcessCommunicator : public Communicator {
 public:
  InProcessCommunicator(InProcessGroup::State* state, int rank, int size)
      : Communicator(rank, size), state_(state) {}

 protected:
  Status SendTo(int peer, std::uint64_t tag, const double* data,
                std::size_t n) override {
    InProcessSlot& s = state_->slot(rank(), peer);
    s.data = data;
    s.n = n;
    s.post.store(tag + 1, std::memory_order_release);
    AdaptiveWait wait;
    while (s.ack.load(std::memory_order_acquire) != tag + 1) {
      DT_RETURN_NOT_OK(WaitStep(&wait));
    }
    FinishWait(wait);
    s.post.store(0, std::memory_order_relaxed);
    return Status::OK();
  }

  Status RecvCombine(int peer, std::uint64_t tag, double* data, std::size_t n,
                     Combine combine) override {
    InProcessSlot& s = state_->slot(peer, rank());
    AdaptiveWait wait;
    while (s.post.load(std::memory_order_acquire) != tag + 1) {
      DT_RETURN_NOT_OK(WaitStep(&wait));
    }
    FinishWait(wait);
    DT_CHECK_EQ(s.n, n) << "in-process rendezvous size mismatch";
    ApplyCombine(data, s.data, n, static_cast<int>(combine));
    s.ack.store(tag + 1, std::memory_order_release);
    return Status::OK();
  }

 private:
  InProcessGroup::State* state_;
};

}  // namespace

std::shared_ptr<InProcessGroup> InProcessGroup::Create(int size) {
  DT_CHECK_GE(size, 1) << "in-process group needs at least one rank";
  auto group = std::shared_ptr<InProcessGroup>(new InProcessGroup());
  group->state_ = new State();
  group->state_->size = size;
  group->state_->slots =
      std::vector<InProcessSlot>(static_cast<std::size_t>(size) *
                                 static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    group->comms_.emplace_back(
        std::make_unique<InProcessCommunicator>(group->state_, r, size));
  }
  return group;
}

Communicator* InProcessGroup::comm(int rank) {
  DT_CHECK(rank >= 0 && rank < static_cast<int>(comms_.size()))
      << "rank out of range";
  return comms_[static_cast<std::size_t>(rank)].get();
}

InProcessGroup::~InProcessGroup() {
  comms_.clear();
  delete state_;
}

// ---------------------------------------------------------------------------
// Multi-process shared-memory transport.
// ---------------------------------------------------------------------------

namespace {

// Payload capacity of one mailbox, in doubles (64 KiB). Messages larger
// than this stream through the mailbox in chunks under the generation
// protocol below; the pipeline costs one extra rendezvous per 64 KiB,
// which is noise next to the memcpy itself.
constexpr std::size_t kShmChunkDoubles = 8192;

// One mailbox per ordered (sender, receiver) edge. The protocol is a pair
// of monotonically increasing generation counters: `post` counts chunks
// the sender has published, `ack` counts chunks the receiver has consumed.
// The sender waits for ack == post (mailbox free), writes the header
// fields + payload, and publishes with post = post + 1 (release); the
// receiver waits for post == ack + 1 (acquire), consumes, and releases the
// mailbox with ack = ack + 1 (release). The counters never reset, so a
// chunk can never be confused with its predecessor (no ABA), and each
// ordered edge carries at most one in-flight collective message at a time
// (the collectives' tag sequencing guarantees this), so FIFO per edge is
// all the matching needed — `tag` is carried only to assert the protocol.
//
// The struct lives in shared memory: everything is trivially copyable,
// lock-free atomics (enforced below), and position-independent (no
// pointers). The counters sit on separate cache lines so the sender
// polling `ack` does not contend with the receiver polling `post`.
struct ShmMailbox {
  alignas(64) std::atomic<std::uint64_t> post;
  alignas(64) std::atomic<std::uint64_t> ack;
  alignas(64) std::uint64_t tag;
  std::uint64_t total_n;   // Doubles in the whole message.
  std::uint64_t chunk_n;   // Doubles in this chunk.
  double payload[kShmChunkDoubles];
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm transport needs lock-free 64-bit atomics");
static_assert(std::is_trivially_copyable_v<std::uint64_t>);

constexpr std::uint64_t kShmMagic = 0x44544b5253484d31ull;  // "DTKRSHM1"

struct ShmHeader {
  std::uint64_t magic;
  std::uint32_t size;               // Rank count the creator laid out.
  std::atomic<std::uint32_t> ready; // 1 once the segment is initialized.
};

std::size_t ShmSegmentBytes(int size) {
  return sizeof(ShmHeader) +
         static_cast<std::size_t>(size) * static_cast<std::size_t>(size) *
             sizeof(ShmMailbox);
}

class ShmCommunicator : public Communicator {
 public:
  ShmCommunicator(std::string name, int rank, int size, void* mem,
                  std::size_t bytes)
      : Communicator(rank, size),
        name_(std::move(name)),
        mem_(mem),
        bytes_(bytes) {}

  ~ShmCommunicator() override {
    ::munmap(mem_, bytes_);
    // Rank 0 owns the name. Unlinking while peers are still mapped is
    // safe: POSIX keeps the segment alive until the last mapping drops.
    if (rank() == 0) ::shm_unlink(name_.c_str());
  }

 protected:
  Status SendTo(int peer, std::uint64_t tag, const double* data,
                std::size_t n) override {
    ShmMailbox& box = mailbox(rank(), peer);
    const std::size_t nchunks = std::max<std::size_t>(
        1, (n + kShmChunkDoubles - 1) / kShmChunkDoubles);
    std::size_t off = 0;
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::uint64_t gen = box.post.load(std::memory_order_relaxed);
      AdaptiveWait wait;
      while (box.ack.load(std::memory_order_acquire) != gen) {
        DT_RETURN_NOT_OK(WaitStep(&wait));
      }
      FinishWait(wait);
      const std::size_t len = std::min(kShmChunkDoubles, n - off);
      box.tag = tag;
      box.total_n = n;
      box.chunk_n = len;
      if (len > 0) {
        std::memcpy(box.payload, data + off, len * sizeof(double));
      }
      off += len;
      box.post.store(gen + 1, std::memory_order_release);
    }
    return Status::OK();
  }

  Status RecvCombine(int peer, std::uint64_t tag, double* data, std::size_t n,
                     Combine combine) override {
    ShmMailbox& box = mailbox(peer, rank());
    const std::size_t nchunks = std::max<std::size_t>(
        1, (n + kShmChunkDoubles - 1) / kShmChunkDoubles);
    std::size_t off = 0;
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::uint64_t gen = box.ack.load(std::memory_order_relaxed);
      AdaptiveWait wait;
      while (box.post.load(std::memory_order_acquire) != gen + 1) {
        DT_RETURN_NOT_OK(WaitStep(&wait));
      }
      FinishWait(wait);
      DT_CHECK_EQ(box.tag, tag) << "shm rendezvous tag mismatch";
      DT_CHECK_EQ(box.total_n, n) << "shm rendezvous size mismatch";
      const std::size_t len = static_cast<std::size_t>(box.chunk_n);
      if (len > 0) {
        ApplyCombine(data + off, box.payload, len, static_cast<int>(combine));
      }
      off += len;
      box.ack.store(gen + 1, std::memory_order_release);
    }
    return Status::OK();
  }

 private:
  ShmMailbox& mailbox(int sender, int receiver) {
    auto* base = reinterpret_cast<ShmMailbox*>(
        static_cast<char*>(mem_) + sizeof(ShmHeader));
    return base[static_cast<std::size_t>(sender) *
                    static_cast<std::size_t>(size()) +
                static_cast<std::size_t>(receiver)];
  }

  std::string name_;
  void* mem_;
  std::size_t bytes_;
};

}  // namespace

Result<std::unique_ptr<Communicator>> CreateShmCommunicator(
    const std::string& name, int rank, int size,
    double setup_timeout_seconds) {
  if (size < 1) {
    return Status::InvalidArgument("shm communicator: size must be >= 1");
  }
  if (rank < 0 || rank >= size) {
    return Status::InvalidArgument("shm communicator: rank out of range");
  }
  if (name.empty() || name[0] != '/' ||
      name.find('/', 1) != std::string::npos) {
    return Status::InvalidArgument(
        "shm communicator: name must start with '/' and contain no other "
        "slashes (got '" + name + "')");
  }
  const std::size_t bytes = ShmSegmentBytes(size);
  int fd = -1;
  if (rank == 0) {
    // Reclaim any stale segment from a crashed prior run, then create
    // fresh so no peer can attach to a half-initialized leftover.
    ::shm_unlink(name.c_str());
    fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) {
      return Status::IoError("shm communicator: shm_open(create " + name +
                             ") failed: " + std::strerror(errno));
    }
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      ::close(fd);
      ::shm_unlink(name.c_str());
      return Status::IoError("shm communicator: ftruncate(" + name +
                             ") failed: " + std::strerror(errno));
    }
  } else {
    // Peers poll until rank 0 has created the segment (bounded).
    Timer timer;
    for (;;) {
      fd = ::shm_open(name.c_str(), O_RDWR, 0600);
      if (fd >= 0) break;
      if (errno != ENOENT) {
        return Status::IoError("shm communicator: shm_open(" + name +
                               ") failed: " + std::strerror(errno));
      }
      if (timer.Seconds() > setup_timeout_seconds) {
        return Status::Unavailable(
            "shm communicator: rank 0 did not create segment " + name +
            " within " + std::to_string(setup_timeout_seconds) + "s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // The creator may not have ftruncate'd yet; wait for the full size.
    Timer size_timer;
    for (;;) {
      struct stat st;
      if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return Status::IoError("shm communicator: fstat(" + name +
                               ") failed: " + std::strerror(errno));
      }
      if (static_cast<std::size_t>(st.st_size) >= bytes) break;
      if (size_timer.Seconds() > setup_timeout_seconds) {
        ::close(fd);
        return Status::Unavailable(
            "shm communicator: segment " + name + " never reached its size");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  void* mem =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // The mapping keeps the segment referenced.
  if (mem == MAP_FAILED) {
    if (rank == 0) ::shm_unlink(name.c_str());
    return Status::IoError("shm communicator: mmap(" + name +
                           ") failed: " + std::strerror(errno));
  }
  auto* header = static_cast<ShmHeader*>(mem);
  if (rank == 0) {
    // ftruncate zero-fills, which is a valid initial state for every
    // mailbox (post == ack == 0: empty); only the header needs writing.
    header->magic = kShmMagic;
    header->size = static_cast<std::uint32_t>(size);
    header->ready.store(1, std::memory_order_release);
  } else {
    Timer timer;
    while (header->ready.load(std::memory_order_acquire) != 1) {
      if (timer.Seconds() > setup_timeout_seconds) {
        ::munmap(mem, bytes);
        return Status::Unavailable("shm communicator: segment " + name +
                                   " was never marked ready by rank 0");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (header->magic != kShmMagic ||
        header->size != static_cast<std::uint32_t>(size)) {
      ::munmap(mem, bytes);
      return Status::InvalidArgument(
          "shm communicator: segment " + name +
          " belongs to a different group layout (magic/size mismatch)");
    }
  }
  return std::unique_ptr<Communicator>(
      std::make_unique<ShmCommunicator>(name, rank, size, mem, bytes));
}

}  // namespace dtucker
