#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

namespace ehpc {

namespace {

std::string normalize_key(std::string key) {
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

[[noreturn]] void reject(const std::string& key, const std::string& text,
                         const char* expected) {
  throw ConfigError("bad value '" + text + "' for '" + key + "': expected " +
                    expected);
}

/// Parse the whole of `text` as a T; anything left over, an empty text or a
/// value outside T's range is rejected.
template <class T>
T parse_number(const std::string& key, const std::string& text,
               const char* expected) {
  T out{};
  const char* last = text.data() + text.size();
  const auto [end, err] = std::from_chars(text.data(), last, out);
  if (text.empty() || err != std::errc{} || end != last) {
    reject(key, text, expected);
  }
  return out;
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.size() > 2 && token.compare(0, 2, "--") == 0) {
      token.erase(0, 2);
      if (token.find('=') == std::string::npos) token += "=true";
    }
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      cfg.positional_.push_back(std::move(token));
    } else {
      cfg.values_[normalize_key(token.substr(0, eq))] = token.substr(eq + 1);
    }
  }
  return cfg;
}

Config Config::from_args(int argc, const char* const* argv,
                         const std::vector<std::string>& allowed_keys) {
  Config cfg = from_args(argc, argv);
  cfg.require_known(allowed_keys);
  return cfg;
}

void Config::require_known(const std::vector<std::string>& allowed_keys) const {
  for (const auto& [key, value] : values_) {
    if (std::find(allowed_keys.begin(), allowed_keys.end(), key) !=
        allowed_keys.end()) {
      continue;
    }
    std::string msg = "unknown option '" + key + "'; known options:";
    if (allowed_keys.empty()) {
      msg += " (none)";
    } else {
      for (const auto& k : allowed_keys) msg += " " + k;
    }
    throw ConfigError(msg);
  }
}

void Config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_or(const std::string& key,
                           const std::string& fallback) const {
  return get(key).value_or(fallback);
}

int Config::get_int(const std::string& key, int fallback) const {
  const auto v = get(key);
  return v ? parse_int(key, *v) : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  return v ? parse_double(key, *v) : fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  return v ? parse_bool(key, *v) : fallback;
}

int Config::parse_int(const std::string& key, const std::string& text) {
  return parse_number<int>(key, text, "an integer");
}

unsigned Config::parse_unsigned(const std::string& key,
                                const std::string& text) {
  return parse_number<unsigned>(key, text, "a non-negative integer");
}

double Config::parse_double(const std::string& key, const std::string& text) {
  const double out = parse_number<double>(key, text, "a finite number");
  if (!std::isfinite(out)) reject(key, text, "a finite number");
  return out;
}

bool Config::parse_bool(const std::string& key, const std::string& text) {
  std::string lower = text;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") {
    return false;
  }
  reject(key, text, "true/false, 1/0, yes/no or on/off");
}

}  // namespace ehpc
