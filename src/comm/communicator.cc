#include "comm/communicator.h"

#include <algorithm>
#include <atomic>
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
// Communicator; the transport casts from within member scope.
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
// hundreds of nanoseconds (peers already in the collective), yielding
// covers peers descheduled on a busy box, and the exponential sleep bounds
// CPU burn when a peer is genuinely slow (a rank still in its compute
// phase). The RunContext/timeout poll runs at most every kCheckMask+1
// spins so the hot phase stays cheap.
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

}  // namespace dtucker
