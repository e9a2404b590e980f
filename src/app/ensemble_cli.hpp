// Shared command-line parsing for ensemble-mode front ends.
//
// `redspot-sim ensemble` and both `redspot-fabric` subcommands must build
// the *same* EnsembleSpec from the same flags — the fabric's spec-hash
// handshake rejects any divergence, so the option-to-spec mapping lives
// here once instead of drifting per binary.
#pragma once

#include <charconv>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "ensemble/spec.hpp"

namespace redspot {

struct EnsembleCliArgs {
  // Spec-shaping options (fingerprinted via EnsembleSpec::spec_hash).
  VolatilityWindow window = VolatilityWindow::kHigh;
  double slack = 0.15;
  Duration tc = 300;
  std::string policy = "adaptive";
  Money bid = Money::cents(81);
  Money threshold = Money::cents(81);
  std::vector<std::size_t> zones{0};
  std::uint64_t seed = 42;
  Duration notice = 0;
  std::size_t replications = 1000;
  std::size_t shards = 64;
  // Execution options (not part of the spec).
  std::size_t threads = 0;
  bool no_cache = false;
  std::string journal_dir;
};

/// Consumes every recognized ensemble option from argv (argv[0] is skipped
/// as the program/subcommand name). Unrecognized options are appended to
/// *extra for the caller to handle; pass nullptr to make them fatal.
/// Exits with code 2 and a usage message on malformed input.
EnsembleCliArgs parse_ensemble_args(int argc, char** argv,
                                    std::vector<std::string>* extra);

/// Exits with code 2 and a usage message naming `option` and `text`.
[[noreturn]] void bad_option_value(const std::string& option,
                                   const char* text);

/// Parses the value of numeric `option`: all of `text` must be one base-10
/// number in [lo, hi] (NaN and infinities are never in range). Exits with
/// code 2 and a usage message otherwise.
template <typename T>
T parse_number(const std::string& option, const char* text, T lo,
               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || !(value >= lo && value <= hi))
    bad_option_value(option, text);
  return value;
}

/// Builds the validated, fingerprintable spec the args describe.
/// Exits with code 2 on an unknown policy name or a multi-zone large-bid.
EnsembleSpec make_ensemble_spec(const EnsembleCliArgs& args);

}  // namespace redspot
