#pragma once

#include <cmath>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

/// Fail-loud field readers shared by the two line-oriented text parsers,
/// the `.scn` scenario parser (core/scenario.cpp) and SwarmSpec::parse
/// (core/swarm.cpp). Every reader consumes one whitespace-separated token
/// from a line's stream and throws std::runtime_error naming the source
/// and line on anything but a well-formed in-range value. Internal to
/// those two parsers.
namespace icd::core {

/// Parse-time error with the source name and line number, so a malformed
/// entry names its own location.
[[noreturn]] inline void fail(const std::string& origin, std::size_t line,
                              const std::string& why) {
  throw std::runtime_error(origin + " line " + std::to_string(line) + ": " +
                           why);
}

/// Probability fields must be actual probabilities; a rate of 1.5 is a
/// typo, not a request for certain loss.
inline double read_probability(std::istringstream& fields,
                               const std::string& origin, std::size_t line,
                               const std::string& what) {
  double value = 0.0;
  if (!(fields >> value) || value < 0.0 || value > 1.0 ||
      !std::isfinite(value)) {
    fail(origin, line, what + " must be a probability in [0, 1]");
  }
  return value;
}

inline double read_rate(std::istringstream& fields, const std::string& origin,
                        std::size_t line, const std::string& what) {
  double value = 0.0;
  if (!(fields >> value) || value < 0.0 || !std::isfinite(value)) {
    fail(origin, line, what + " must be a finite non-negative rate");
  }
  return value;
}

/// A non-negative integer that fits T: the whole token must parse.
template <typename T>
T read_integer(std::istringstream& fields, const std::string& origin,
               std::size_t line, const std::string& what) {
  // istream would happily wrap "-5" into a huge unsigned count; peek at the
  // raw token so negative input is rejected with its own message.
  std::string token;
  if (!(fields >> token) || token.empty() || token[0] == '-') {
    fail(origin, line, what + " must be a non-negative integer");
  }
  std::istringstream value_in(token);
  T value{};
  if (!(value_in >> value) || !value_in.eof()) {
    fail(origin, line, what + " must be a non-negative integer");
  }
  return value;
}

inline void reject_trailing(std::istringstream& fields,
                            const std::string& origin, std::size_t line,
                            const std::string& key) {
  std::string extra;
  if (fields >> extra) {
    fail(origin, line, "trailing tokens after '" + key + "': '" + extra + "'");
  }
}

}  // namespace icd::core
