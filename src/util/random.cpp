#include "util/random.hpp"

#include <bit>
#include <stdexcept>

namespace icd::util {

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("next_below: bound must be > 0");
  // Lemire 2019: multiply-shift with rejection to remove modulo bias.
  unsigned __int128 m =
      static_cast<unsigned __int128>((*this)()) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      m = static_cast<unsigned __int128>((*this)()) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (std::uint64_t{1} << bit)) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= state_[i];
      }
      (void)(*this)();
    }
  }
  state_ = acc;
}

std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                      std::size_t k,
                                                      Xoshiro256& rng) {
  std::vector<std::uint64_t> result;
  sample_without_replacement_into(result, n, k, rng);
  return result;
}

void sample_without_replacement_into(std::vector<std::uint64_t>& out,
                                     std::uint64_t n, std::size_t k,
                                     Xoshiro256& rng) {
  if (k > n) {
    throw std::invalid_argument("sample_without_replacement: k > n");
  }
  out.clear();
  // Robert Floyd's algorithm: draw j in [n - k, n) takes t = below(j + 1),
  // or j itself when t is already taken (j never is).
  if (k <= 64) {
    // The recode degree cap and most of the soliton mass: a linear scan
    // of the picks so far beats any set.
    const auto contains = [&out](std::uint64_t v) {
      for (const std::uint64_t x : out) {
        if (x == v) return true;
      }
      return false;
    };
    for (std::uint64_t j = n - k; j < n; ++j) {
      const std::uint64_t t = rng.next_below(j + 1);
      out.push_back(contains(t) ? j : t);
    }
    return;
  }
  // The rare large draw (the soliton tail) keeps its membership set in an
  // open-addressing table laid out in out's storage after the k picks, so
  // a warm `out` allocates nothing. Picks are below n, so ~0 marks a free
  // cell.
  constexpr std::uint64_t kFree = ~std::uint64_t{0};
  const std::size_t cells = std::bit_ceil(2 * k);
  const int shift = 64 - std::countr_zero(cells);
  out.assign(k + cells, kFree);
  std::uint64_t* const picks = out.data();
  std::uint64_t* const table = picks + k;
  // Inserts v; false if it was there already.
  const auto insert = [&](std::uint64_t v) {
    std::size_t cell = (v * 0x9e3779b97f4a7c15ULL) >> shift;
    while (table[cell] != kFree) {
      if (table[cell] == v) return false;
      cell = (cell + 1) & (cells - 1);
    }
    table[cell] = v;
    return true;
  };
  std::size_t i = 0;
  for (std::uint64_t j = n - k; j < n; ++j) {
    std::uint64_t t = rng.next_below(j + 1);
    if (!insert(t)) {
      t = j;
      insert(j);
    }
    picks[i++] = t;
  }
  out.resize(k);
}

}  // namespace icd::util
