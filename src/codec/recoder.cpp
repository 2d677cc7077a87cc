#include "codec/recoder.hpp"

#include <algorithm>
#include <cmath>

#include "util/random.hpp"

namespace icd::codec {

std::size_t optimal_recode_degree(std::size_t n, double c, std::size_t cap) {
  if (n == 0) return 1;
  const double cc = std::clamp(c, 0.0, 1.0);
  const double dn = static_cast<double>(n);
  const double denom = dn * (1.0 - cc);
  if (denom < 1.0) return cap;  // c ~ 1: everything shared; max blending
  const double d = std::ceil((dn * cc + 1.0) / denom);
  return std::clamp<std::size_t>(static_cast<std::size_t>(d), 1, cap);
}

std::size_t draw_recode_degree(const DegreeDistribution& dist, std::size_t n,
                               double c, util::Xoshiro256& rng,
                               std::size_t cap) {
  const std::size_t lower = optimal_recode_degree(n, c, cap);
  const std::size_t base = dist.sample(rng);
  return std::clamp(std::max(base, lower), std::size_t{1}, cap);
}

std::size_t minwise_recode_degree(std::size_t base_degree, double c,
                                  std::size_t cap) {
  const double cc = std::clamp(c, 0.0, 1.0);
  if (cc >= 1.0) return cap;
  const double scaled = std::floor(static_cast<double>(base_degree) /
                                   (1.0 - cc));
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(1.0, scaled)), 1, cap);
}

bool RecodeDecoder::add_held_symbol(const EncodedSymbol& symbol) {
  return peeler_.mark_known(symbol.id, symbol.payload);
}

bool RecodeDecoder::add_held_symbol(const EncodedSymbolView& symbol) {
  return peeler_.mark_known(symbol.id, symbol.payload);
}

bool RecodeDecoder::add_recoded(const RecodedSymbol& symbol) {
  return add_recoded(RecodedSymbolView(symbol));
}

bool RecodeDecoder::add_recoded(const RecodedSymbolView& symbol) {
  return peeler_.add_equation(symbol.constituents, symbol.payload);
}

}  // namespace icd::codec
