#include "mpi/collectives.hpp"

#include <algorithm>
#include <stdexcept>

namespace hxsim::mpi::collectives {

namespace {

void check_n(std::int32_t n) {
  if (n < 1) throw std::invalid_argument("collective: n must be >= 1");
}

std::int32_t ceil_log2(std::int32_t n) {
  std::int32_t k = 0;
  while ((std::int32_t{1} << k) < n) ++k;
  return k;
}

std::int32_t floor_pow2(std::int32_t n) {
  std::int32_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// Virtual rank helpers so any root works with root-0 algorithms.
std::int32_t from_vrank(std::int32_t v, std::int32_t root, std::int32_t n) {
  return (v + root) % n;
}

}  // namespace

Schedule barrier_dissemination(std::int32_t n) {
  check_n(n);
  Schedule s;
  for (std::int32_t k = 0; (std::int32_t{1} << k) < n; ++k) {
    Round round;
    const std::int32_t dist = std::int32_t{1} << k;
    for (std::int32_t i = 0; i < n; ++i)
      round.push_back(RankMsg{i, (i + dist) % n, 0});
    s.push_back(std::move(round));
  }
  return s;
}

Schedule bcast_binomial(std::int32_t n, std::int64_t bytes,
                        std::int32_t root) {
  check_n(n);
  Schedule s;
  for (std::int32_t t = 0; t < ceil_log2(n); ++t) {
    Round round;
    const std::int32_t dist = std::int32_t{1} << t;
    for (std::int32_t v = 0; v < dist && v + dist < n; ++v)
      round.push_back(RankMsg{from_vrank(v, root, n),
                              from_vrank(v + dist, root, n), bytes});
    s.push_back(std::move(round));
  }
  return s;
}

Schedule reduce_binomial(std::int32_t n, std::int64_t bytes,
                         std::int32_t root) {
  check_n(n);
  Schedule s;
  for (std::int32_t t = 0; t < ceil_log2(n); ++t) {
    Round round;
    const std::int32_t dist = std::int32_t{1} << t;
    for (std::int32_t v = dist; v < n; v += 2 * dist)
      round.push_back(RankMsg{from_vrank(v, root, n),
                              from_vrank(v - dist, root, n), bytes});
    s.push_back(std::move(round));
  }
  return s;
}

Schedule gather_binomial(std::int32_t n, std::int64_t bytes,
                         std::int32_t root) {
  check_n(n);
  Schedule s;
  for (std::int32_t t = 0; t < ceil_log2(n); ++t) {
    Round round;
    const std::int32_t dist = std::int32_t{1} << t;
    for (std::int32_t v = dist; v < n; v += 2 * dist) {
      // v forwards every block it has accumulated so far: its own subtree,
      // clipped at the communicator end.
      const std::int32_t blocks = std::min(dist, n - v);
      round.push_back(RankMsg{from_vrank(v, root, n),
                              from_vrank(v - dist, root, n),
                              bytes * blocks});
    }
    s.push_back(std::move(round));
  }
  return s;
}

Schedule gather_linear(std::int32_t n, std::int64_t bytes, std::int32_t root) {
  check_n(n);
  Schedule s;
  Round round;
  for (std::int32_t i = 0; i < n; ++i)
    if (i != root) round.push_back(RankMsg{i, root, bytes});
  if (!round.empty()) s.push_back(std::move(round));
  return s;
}

Schedule scatter_binomial(std::int32_t n, std::int64_t bytes,
                          std::int32_t root) {
  check_n(n);
  Schedule s;
  for (std::int32_t t = ceil_log2(n) - 1; t >= 0; --t) {
    Round round;
    const std::int32_t dist = std::int32_t{1} << t;
    for (std::int32_t v = 0; v < n; v += 2 * dist) {
      if (v + dist >= n) continue;
      const std::int32_t blocks = std::min(dist, n - (v + dist));
      round.push_back(RankMsg{from_vrank(v, root, n),
                              from_vrank(v + dist, root, n),
                              bytes * blocks});
    }
    s.push_back(std::move(round));
  }
  return s;
}

Schedule allreduce_recursive_doubling(std::int32_t n, std::int64_t bytes) {
  check_n(n);
  Schedule s;
  if (n == 1) return s;
  const std::int32_t p2 = floor_pow2(n);
  const std::int32_t rem = n - p2;

  // Pre-step: fold the remainder in.  Ranks < 2*rem pair up; evens hand
  // their data to odds, odds act in the power-of-two phase.
  if (rem > 0) {
    Round round;
    for (std::int32_t v = 0; v < 2 * rem; v += 2)
      round.push_back(RankMsg{v, v + 1, bytes});
    s.push_back(std::move(round));
  }

  // Active rank v' in [0, p2): maps to odd ranks of the folded prefix then
  // the tail.
  auto active = [&](std::int32_t vp) {
    return vp < rem ? 2 * vp + 1 : vp + rem;
  };
  for (std::int32_t t = 0; (std::int32_t{1} << t) < p2; ++t) {
    Round round;
    const std::int32_t mask = std::int32_t{1} << t;
    for (std::int32_t vp = 0; vp < p2; ++vp) {
      const std::int32_t peer = vp ^ mask;
      round.push_back(RankMsg{active(vp), active(peer), bytes});
    }
    s.push_back(std::move(round));
  }

  // Post-step: odds return the result to their evens.
  if (rem > 0) {
    Round round;
    for (std::int32_t v = 0; v < 2 * rem; v += 2)
      round.push_back(RankMsg{v + 1, v, bytes});
    s.push_back(std::move(round));
  }
  return s;
}

Schedule allreduce_ring(std::int32_t n, std::int64_t bytes) {
  check_n(n);
  Schedule s;
  if (n == 1) return s;
  const std::int64_t chunk = (bytes + n - 1) / n;
  // Reduce-scatter then allgather, each n-1 neighbour rounds.
  for (std::int32_t phase = 0; phase < 2; ++phase) {
    for (std::int32_t r = 0; r < n - 1; ++r) {
      Round round;
      for (std::int32_t i = 0; i < n; ++i)
        round.push_back(RankMsg{i, (i + 1) % n, chunk});
      s.push_back(std::move(round));
    }
  }
  return s;
}

Schedule allgather_ring(std::int32_t n, std::int64_t bytes) {
  check_n(n);
  Schedule s;
  for (std::int32_t r = 0; r < n - 1; ++r) {
    Round round;
    for (std::int32_t i = 0; i < n; ++i)
      round.push_back(RankMsg{i, (i + 1) % n, bytes});
    s.push_back(std::move(round));
  }
  return s;
}

Schedule alltoall_pairwise(std::int32_t n, std::int64_t bytes) {
  check_n(n);
  Schedule s;
  for (std::int32_t r = 1; r < n; ++r) {
    Round round;
    for (std::int32_t i = 0; i < n; ++i)
      round.push_back(RankMsg{i, (i + r) % n, bytes});
    s.push_back(std::move(round));
  }
  return s;
}

Schedule pingpong(std::int64_t bytes, std::int32_t repeats) {
  Schedule s;
  for (std::int32_t r = 0; r < repeats; ++r) {
    s.push_back(Round{RankMsg{0, 1, bytes}});
    s.push_back(Round{RankMsg{1, 0, bytes}});
  }
  return s;
}

Schedule multi_pingpong(std::int32_t n, std::int64_t bytes,
                        std::int32_t repeats) {
  check_n(n);
  Schedule s;
  const std::int32_t half = n / 2;
  if (half == 0) return s;
  for (std::int32_t r = 0; r < repeats; ++r) {
    Round ping;
    Round pong;
    for (std::int32_t i = 0; i < half; ++i) {
      ping.push_back(RankMsg{i, i + half, bytes});
      pong.push_back(RankMsg{i + half, i, bytes});
    }
    s.push_back(std::move(ping));
    s.push_back(std::move(pong));
  }
  return s;
}

}  // namespace hxsim::mpi::collectives
