// Communicator: rank-to-rank collectives for sharded D-Tucker.
//
// D-Tucker's distributed structure only ever needs small collectives: the
// approximation phase is embarrassingly parallel over slices, and the
// initialization/iteration phases exchange Gram matrices, projected-core
// slabs, and scalars — never the raw tensor. A Communicator provides
// exactly that surface for a fixed group of `size` ranks:
//
//   Broadcast      root's buffer replicated to all ranks
//   AllReduceSum   elementwise sum with a *deterministic* binomial tree
//   AllReduceMax   elementwise max (order-free, bitwise for non-NaN input)
//   Gather         concatenation of per-rank buffers on the root
//   AllGatherV     variable-count gather replicated to all ranks
//
// Determinism contract: AllReduceSum combines rank contributions through a
// fixed binomial tree over rank indices — at distance d = 1, 2, 4, ...,
// rank r with r % 2d == d sends its accumulator to rank r - d, which adds
// it on top of its own (receiver += sender, in ascending-distance order).
// The addition order therefore depends only on the rank count, never on
// timing or the transport, so repeated runs are bitwise identical. Higher
// layers (dtucker/sharded_dtucker.h) compose this with a fixed chunk grid
// over slices so the *global* reduction shape is also identical across
// rank counts.
//
// Transport: the collective algorithms above are written against two
// point-to-point primitives (SendTo / RecvCombine), implemented by
// InProcessGroup, whose ranks are threads of one process sharing an
// address space; rendezvous is a lock-free seqlock-style mailbox exchange.
// Every D-Tucker entry point runs its ranks on it. The primitives are the
// seam a transport between machines would implement.
//
// Waiting: every blocking wait goes through one adaptive strategy — spin
// (cpu-relax), then yield, then exponentially growing short sleeps — and
// polls an optional RunContext plus a communicator-level timeout (default
// 120 s), so a peer that never arrives surfaces as kUnavailable instead of
// a deadlock and a cancellation turns a pending collective into
// kCancelled/kDeadlineExceeded.
//
// Observability: every collective is wrapped in a flow-tagged TraceSpan
// and bumps the comm.* metrics: comm.reduces / comm.bytes_reduced / the
// per-rank comm.rank<r>.reduce_ns gauge, plus — per outermost collective
// kind — the time spent blocked on peers in the comm.wait_ns.<op> gauge
// AND histogram (full p50/p90/p99 wait distributions) and the invocation
// count in comm.ops.<op> (op in {broadcast, allreduce_sum, allreduce_max,
// gather, allgatherv}), so --metrics-out and bench_report can split
// synchronization into compute vs wait.
//
// Cross-rank flows: every collective entry bumps a per-communicator
// sequence number. Ranks execute the identical sequence of collective
// calls (SPMD lockstep — the same discipline NextTag() already relies
// on), so call k on rank r and call k on rank s are the same logical
// collective; combining the sequence number with a run-wide flow group
// (set_trace_flow_group, identical on all ranks) yields a flow id that is
// equal across ranks and unique within the trace. The exporter emits
// Perfetto flow events ('s' on rank 0, 't' on middle ranks, 'f' on the
// last rank) with that id, which draws one arrow through the rank-local
// spans of the same collective.
#ifndef DTUCKER_COMM_COMMUNICATOR_H_
#define DTUCKER_COMM_COMMUNICATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "common/timer.h"
#include "linalg/matrix.h"

namespace dtucker {

class Counter;
class Gauge;
class Histogram;

class Communicator {
 public:
  virtual ~Communicator() = default;

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int rank() const { return rank_; }
  int size() const { return size_; }

  // Optional execution control: polled by every blocking wait. Caller
  // owned; must outlive the communicator's use. May be null.
  void set_run_context(const RunContext* ctx) { ctx_ = ctx; }
  const RunContext* run_context() const { return ctx_; }

  // Upper bound on any single blocking wait (seconds). A peer that never
  // shows up turns into kUnavailable after this long. Default 120 s.
  void set_timeout_seconds(double seconds) { timeout_seconds_ = seconds; }
  double timeout_seconds() const { return timeout_seconds_; }

  // Replicates root's `data[0, n)` into every rank's buffer.
  Status Broadcast(double* data, std::size_t n, int root = 0);

  // In-place elementwise sum over ranks, deterministic binomial tree (see
  // file comment); every rank exits with the identical summed buffer.
  Status AllReduceSum(double* data, std::size_t n);
  Status AllReduceSum(Matrix* m) { return AllReduceSum(m->data(), m->size()); }

  // In-place elementwise max over ranks. Max is associative and
  // commutative exactly (for non-NaN inputs), so no tree discipline is
  // needed for determinism.
  Status AllReduceMax(double* data, std::size_t n);

  // Variable-count gather: rank r contributes `send[0, counts[r])`, and the
  // root receives the ascending-rank concatenation (sum(counts) doubles)
  // in `recv` (root only).
  Status Gather(const double* send, const std::vector<std::size_t>& counts,
                double* recv, int root = 0);

  // Variable-count all-gather: Gather to rank 0, then a broadcast, so every
  // rank exits with the concatenation in `recv`. Concatenation involves no
  // floating-point combine, so the result is trivially bitwise
  // deterministic.
  Status AllGatherV(const double* send, const std::vector<std::size_t>& counts,
                    double* recv);

  // Namespace for cross-rank trace flow ids (see the file comment). Must
  // be set to the same value on every rank of a group, before the first
  // collective, for the flow arrows in the trace to connect; 0 (the
  // default) is a valid group.
  void set_trace_flow_group(std::uint64_t group) { trace_flow_group_ = group; }

 protected:
  Communicator(int rank, int size) : rank_(rank), size_(size) {}

  // Transport primitives. `tag` is a monotonically increasing operation
  // sequence number assigned by the collective algorithms; a (tag, peer)
  // pair identifies one point-to-point rendezvous.
  //
  // SendTo publishes `data[0, n)` to `peer` under `tag` and blocks until
  // the peer has consumed it (or the transport has taken a private copy).
  // RecvCombine blocks for the matching publish from `peer` and either
  // copies (combine == kCopy) or accumulates elementwise into `data`.
  enum class Combine { kCopy, kAdd, kMax };
  virtual Status SendTo(int peer, std::uint64_t tag, const double* data,
                        std::size_t n) = 0;
  virtual Status RecvCombine(int peer, std::uint64_t tag, double* data,
                             std::size_t n, Combine combine) = 0;

  // One blocking wait of a transport primitive. Use as:
  //
  //   AdaptiveWait wait;
  //   while (!condition) DT_RETURN_NOT_OK(WaitStep(&wait));
  //   FinishWait(wait);
  //
  // WaitStep escalates from cpu-relax spinning through thread yields to
  // exponentially growing sleeps (1 µs doubling to 100 µs), polls the
  // RunContext, and enforces the communicator timeout. FinishWait
  // attributes the blocked time to the enclosing collective's
  // comm.wait_ns.* bucket (a no-op if the condition was true on entry).
  struct AdaptiveWait {
    Timer timer;
    std::uint64_t polls = 0;
    unsigned sleep_us = 1;
  };
  Status WaitStep(AdaptiveWait* w);
  void FinishWait(const AdaptiveWait& w);

  // The comm.wait_ns.<op> gauge and histogram and the comm.ops.<op>
  // counter of one collective kind. Each collective resolves its own once
  // per process (a function-local static), so leaving a collective never
  // takes the registry lock.
  struct OpMetrics {
    explicit OpMetrics(const std::string& op);
    Gauge* wait_gauge;
    Histogram* wait_histogram;
    Counter* ops;
  };

  // RAII collective bracket: the outermost scope on a communicator names
  // the op that wait time is attributed to (nested collectives — e.g. the
  // broadcast inside AllReduceSum — fold into the outer op) and flushes
  // comm.wait_ns.<op> / comm.ops.<op> on exit. Communicators are used by
  // one thread at a time, so plain members suffice.
  class OpScope {
   public:
    OpScope(Communicator* comm, const OpMetrics* op);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    Communicator* comm_;
    bool outermost_;
  };

  std::uint64_t NextTag() { return next_tag_++; }

 private:
  Status ReduceTree(double* data, std::size_t n, Combine combine);

  // Adds `ns` to this rank's comm.rank<r>.reduce_ns gauge, resolved on the
  // first reduction.
  void AddReduceNs(double ns);

  // Flow id for the next collective call: same value on every rank by the
  // lockstep argument in the file comment. Bumped unconditionally (even
  // with tracing off) so ranks that enable tracing at different times
  // still agree.
  std::uint64_t NextFlowId() {
    return (trace_flow_group_ << 32) | ++trace_flow_seq_;
  }
  // 's' on rank 0, 'f' on the last rank, 't' in between; 0 (no flow) for
  // single-rank groups.
  char FlowPhase() const {
    if (size_ <= 1) return 0;
    if (rank_ == 0) return 's';
    return rank_ == size_ - 1 ? 'f' : 't';
  }

  int rank_;
  int size_;
  const RunContext* ctx_ = nullptr;
  double timeout_seconds_ = 120.0;
  std::uint64_t next_tag_ = 0;
  std::uint64_t trace_flow_group_ = 0;
  std::uint64_t trace_flow_seq_ = 0;
  // Wait-attribution state for the current outermost collective.
  const OpMetrics* current_op_ = nullptr;
  double op_wait_ns_ = 0.0;
  Gauge* reduce_ns_ = nullptr;
};

// In-process transport: `size` communicators sharing one rendezvous table,
// one per rank thread. Create() returns them all; hand one to each thread.
// The group object owns the shared state and must outlive every rank.
class InProcessGroup {
 public:
  // `size` >= 1. The returned communicators index ranks 0..size-1.
  static std::shared_ptr<InProcessGroup> Create(int size);

  // Communicator for `rank`; each may be used by exactly one thread at a
  // time. Valid for the group's lifetime.
  Communicator* comm(int rank);

  ~InProcessGroup();

  // Shared rendezvous table; opaque outside the implementation file.
  struct State;

 private:
  InProcessGroup() = default;
  State* state_ = nullptr;
  std::vector<std::unique_ptr<Communicator>> comms_;
};

}  // namespace dtucker

#endif  // DTUCKER_COMM_COMMUNICATOR_H_
