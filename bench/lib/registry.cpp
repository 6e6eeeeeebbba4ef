#include "bench/lib/registry.hpp"

#include "common/error.hpp"

namespace ehpc::bench {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(BenchDef def) {
  EHPC_EXPECTS(!def.name.empty());
  EHPC_EXPECTS(static_cast<bool>(def.fn));
  EHPC_EXPECTS(find(def.name) == nullptr);
  benches_.push_back(std::move(def));
}

const BenchDef* Registry::find(const std::string& name) const {
  for (const auto& def : benches_) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

void check_flag(bool ok, const Config& cfg, const std::string& key,
                const std::string& expected) {
  if (ok) return;
  throw ConfigError("bad value '" + cfg.get_or(key, "") + "' for '" + key +
                    "': expected " + expected);
}

RegisterBench::RegisterBench(BenchDef def) {
  Registry::instance().add(std::move(def));
}

}  // namespace ehpc::bench
