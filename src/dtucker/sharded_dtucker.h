// The D-Tucker core: the slice dimension split across ranks.
//
// Every D-Tucker entry point runs here — DTucker, DTuckerFromApproximation
// and DTuckerFromFile as min(num_threads, C) in-process ranks, --ranks as
// an explicit rank count on a chosen transport. D-Tucker's three phases
// decompose naturally over the L frontal slices:
//
//   Approximation   — embarrassingly parallel; rank r compresses only its
//                     owned slice range (streaming just that shard when the
//                     tensor lives in a file), so no rank ever touches
//                     tensor data it does not own.
//   Initialization  — the stacked-factor Grams sum per-slice contributions
//                     through the canonical chunk tree. The small
//                     projected tensor Z is assembled by a pure-concatenation
//                     all-gather of per-shard slabs.
//   Iteration       — the mode-1/2 carrier contractions reduce per-chunk
//                     GEMM partials through the same tree. For order 3 with
//                     J1*J2 <= L the trailing update is sharded too: the
//                     small-side trailing Gram accumulates per-slice outer
//                     products of the rank's own Z slab, each rank recovers
//                     its own rows of the factor panel, and a
//                     pure-concatenation all-gather plus a replicated thin
//                     QR finishes the update. Otherwise the trailing
//                     updates run on the gathered Z, whose L x L mode Gram
//                     is then the small side. The core refresh contracts
//                     the rank's Z slab over the trailing modes and reduces
//                     it through the same tree (any order).
//
// Determinism: every floating-point sum over slices follows the canonical
// chunk grid of comm/sharding.h — fixed chunks, serial accumulation within
// a chunk, one pairwise tree over the chunk partials whichever rank
// computed them (ChunkTreeAllReduce). Everything else is concatenation,
// exact max, or replicated deterministic compute on identical inputs, so
// plain calls, Engine, every thread count and every rank count in [1, L]
// give one bitwise result.
//
// Execution control: each rank polls its own RunContext
// (options.tucker.run_context) locally, but never aborts a collective
// mid-flight. Instead the ranks agree on interruption at fixed sweep and
// mode boundaries by max-reducing their local status codes, so a cancel or
// deadline on any one rank stops every rank at the same boundary with the
// same rolled-back state — all ranks return the last completed sweep.
//
// Threading: in-process ranks share the process-wide BLAS pool; while R > 1
// ranks run, each holds a PoolPartitionLease, so the R ranks split the pool
// instead of oversubscribing it.
#ifndef DTUCKER_DTUCKER_SHARDED_DTUCKER_H_
#define DTUCKER_DTUCKER_SHARDED_DTUCKER_H_

#include <string>

#include "comm/communicator.h"
#include "comm/sharding.h"
#include "common/status.h"
#include "dtucker/dtucker.h"

namespace dtucker {

struct ShardedDTuckerOptions {
  // num_threads is not used here: the in-process drivers run `num_ranks`
  // ranks of one BLAS-pool share each.
  DTuckerOptions dtucker;
  // Rank count for the in-process drivers (ShardedDTucker,
  // ShardedDTuckerFromFile, ShardedDTuckerFromApproximation), which spawn
  // one thread per rank. Must be in [1, L] for a tensor with L frontal
  // slices; ranks beyond the chunk grid (kShardChunkCount) own zero slices
  // but stay in lockstep. The SPMD entry points ignore this field (the
  // communicator fixes the group).
  int num_ranks = 1;
  // Upper bound on any single blocking communicator wait; a crashed peer
  // surfaces as kUnavailable after this long instead of a deadlock.
  double comm_timeout_seconds = 120.0;

  // Transport the in-process drivers build their rank communicators on.
  // Both produce bitwise-identical results (the collective algorithms are
  // shared — see comm/communicator.h); kShm exists here mainly so tests
  // can exercise the multi-process rendezvous path from one process. The
  // SPMD entry points ignore this field (the caller already built the
  // communicator).
  CommTransport transport = CommTransport::kInProcess;
  // Rendezvous name for kShm: a shm_open name ("/name"). Empty (the
  // default) generates a fresh process-unique name, unlinked after the
  // run. Ignored for kInProcess.
  std::string comm_scratch;

  // Validates the D-Tucker surface plus the rank count against the shape.
  // num_ranks > L is an InvalidArgument (every rank must be addressable on
  // the slice grid), never a crash.
  Status Validate(const std::vector<Index>& shape) const;
};

// In-process driver: runs `options.num_ranks` rank threads over an
// InProcessGroup and returns rank 0's decomposition (all ranks finish with
// bitwise-identical results). `stats`, `sweep_callback` and the error
// history are reported from rank 0's perspective; stats->working_bytes is
// the compressed form of every rank together. With auto_reorder the tensor
// is permuted once, before the ranks start.
Result<TuckerDecomposition> ShardedDTucker(const Tensor& x,
                                           const ShardedDTuckerOptions& options,
                                           TuckerStats* stats = nullptr);

// Out-of-core in-process driver: each rank streams and compresses only its
// own shard of the DTNSR001 file, so peak resident tensor data per rank is
// one slice. The raw tensor is never materialized.
Result<TuckerDecomposition> ShardedDTuckerFromFile(
    const std::string& path, const ShardedDTuckerOptions& options,
    TuckerStats* stats = nullptr);

// Query-phase in-process driver: each rank reads its slice range of
// `approx` in place (no per-rank copy).
Result<TuckerDecomposition> ShardedDTuckerFromApproximation(
    const SliceApproximation& approx, const ShardedDTuckerOptions& options,
    TuckerStats* stats = nullptr);

// SPMD entry points: one call per rank, `comm` fixes the rank/group (e.g.
// a shm communicator when ranks are separate processes — the no-MPI
// multi-process transport). Every rank must call with identical `options`
// and tensor/path/approximation; each returns the full (identical)
// decomposition. The caller owns the BLAS-pool split when ranks share one
// process.
Result<TuckerDecomposition> ShardedDTuckerRank(const Tensor& x,
                                               const DTuckerOptions& options,
                                               Communicator* comm,
                                               TuckerStats* stats = nullptr);

Result<TuckerDecomposition> ShardedDTuckerRankFromFile(
    const std::string& path, const DTuckerOptions& options, Communicator* comm,
    TuckerStats* stats = nullptr);

// Reads only this rank's slice range of the full approximation `approx`.
Result<TuckerDecomposition> ShardedDTuckerRankFromApproximation(
    const SliceApproximation& approx, const DTuckerOptions& options,
    Communicator* comm, TuckerStats* stats = nullptr);

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_SHARDED_DTUCKER_H_
