#ifndef BHPO_COMMON_ENV_H_
#define BHPO_COMMON_ENV_H_

#include <optional>
#include <string>

namespace bhpo {

// Thread-safety-audited environment access.
//
// std::getenv is only safe while no other thread mutates the environment
// (setenv/putenv), and calling it from a namespace-scope dynamic
// initializer runs it before main at an unspecified point in static-init
// order. Every env read in the library goes through these helpers and is
// made at *first use* behind a function-local static in the caller, never
// from a namespace-scope initializer — see SimdEnabledFlag() in
// common/simd.cc and MinLevel() in common/logging.cc for the pattern.
// The repo itself never calls setenv after startup; test harnesses that
// vary the environment (the BHPO_SIMD ctest variants) do so by launching
// the process with a different environment, not by mutating it in-flight.

// Returns the variable's value, or nullopt when unset.
std::optional<std::string> GetEnv(const char* name);

// True when the variable is set to a recognized truthy spelling
// ("1", "on", "true", "yes"; case-insensitive), false for the falsy
// spellings ("0", "off", "false", "no"), default otherwise (including
// unset and unrecognized text).
bool GetEnvBool(const char* name, bool default_value);

// Parses the variable as an int; default when unset or unparseable.
int GetEnvInt(const char* name, int default_value);

}  // namespace bhpo

#endif  // BHPO_COMMON_ENV_H_
