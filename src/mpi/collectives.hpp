// MPI collective communication algorithms as message schedules.
//
// Each builder returns the round-structured point-to-point decomposition of
// a collective, mirroring the algorithms of Open MPI 1.10's tuned component
// (the paper's MPI).  Schedules are pure data: the same schedule runs on
// any cluster/placement, and can be accumulated into a CommProfile -- which
// is exactly why the paper's profiles are placement- and topology-immune.
//
// Conventions: `bytes` is the per-rank payload of the operation (the IMB
// message size); rounds are dependency barriers; rank counts need not be
// powers of two.
#pragma once

#include <cstdint>

#include "mpi/cluster.hpp"

namespace hxsim::mpi::collectives {

/// Dissemination barrier: ceil(log2 n) rounds of zero-byte messages,
/// rank i -> (i + 2^k) mod n.
[[nodiscard]] Schedule barrier_dissemination(std::int32_t n);

/// Binomial-tree broadcast from `root`.
[[nodiscard]] Schedule bcast_binomial(std::int32_t n, std::int64_t bytes,
                                      std::int32_t root = 0);

/// Binomial-tree reduction to `root` (full-size messages per edge).
[[nodiscard]] Schedule reduce_binomial(std::int32_t n, std::int64_t bytes,
                                       std::int32_t root = 0);

/// Binomial gather to `root`: subtree blocks aggregate toward the root, so
/// late rounds carry multiples of `bytes`.
[[nodiscard]] Schedule gather_binomial(std::int32_t n, std::int64_t bytes,
                                       std::int32_t root = 0);

/// Linear gather: every rank sends its block to the root in one round
/// (Open MPI's basic algorithm; an n-to-1 incast).
[[nodiscard]] Schedule gather_linear(std::int32_t n, std::int64_t bytes,
                                     std::int32_t root = 0);

/// Binomial scatter from `root` (reverse of gather_binomial).
[[nodiscard]] Schedule scatter_binomial(std::int32_t n, std::int64_t bytes,
                                        std::int32_t root = 0);

/// Recursive-doubling allreduce with the MPICH pre/post remainder steps
/// for non-power-of-two rank counts.
[[nodiscard]] Schedule allreduce_recursive_doubling(std::int32_t n,
                                                    std::int64_t bytes);

/// Ring allreduce (reduce-scatter + allgather), 2(n-1) rounds of
/// ceil(bytes/n) chunks -- Baidu's DeepBench algorithm.
[[nodiscard]] Schedule allreduce_ring(std::int32_t n, std::int64_t bytes);

/// Ring allgather: n-1 rounds forwarding `bytes` blocks to (i+1) mod n.
[[nodiscard]] Schedule allgather_ring(std::int32_t n, std::int64_t bytes);

/// Pairwise-exchange alltoall: n-1 rounds, rank i -> (i + r) mod n.
[[nodiscard]] Schedule alltoall_pairwise(std::int32_t n, std::int64_t bytes);

/// Two-rank ping-pong (2 rounds x `repeats`).
[[nodiscard]] Schedule pingpong(std::int64_t bytes, std::int32_t repeats = 1);

/// IMB Multi-PingPong: n/2 concurrent pairs (i, i + n/2).
[[nodiscard]] Schedule multi_pingpong(std::int32_t n, std::int64_t bytes,
                                      std::int32_t repeats = 1);

}  // namespace hxsim::mpi::collectives
