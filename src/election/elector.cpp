#include "election/elector.hpp"

#include <stdexcept>
#include <string>

#include "election/omega_id.hpp"
#include "election/omega_l.hpp"
#include "election/omega_lc.hpp"

namespace omega::election {

elector::elector(elector_context ctx) : ctx_(std::move(ctx)) {
  const auto require = [](bool set, const char* hook) {
    if (!set) {
      throw std::invalid_argument(std::string("elector_context::") + hook +
                                  " is required");
    }
  };
  require(ctx_.clock != nullptr, "clock");
  require(static_cast<bool>(ctx_.is_trusted), "is_trusted");
  require(static_cast<bool>(ctx_.members), "members");
  require(static_cast<bool>(ctx_.members_version), "members_version");
  require(static_cast<bool>(ctx_.send_accuse), "send_accuse");
}

std::string_view to_string(algorithm alg) {
  switch (alg) {
    case algorithm::omega_id:
      return "omega_id (S1)";
    case algorithm::omega_lc:
      return "omega_lc (S2)";
    case algorithm::omega_l:
      return "omega_l (S3)";
    case algorithm::omega_lc_noforward:
      return "omega_lc w/o forwarding (ablation)";
    case algorithm::omega_l_nophase:
      return "omega_l w/o phase guard (ablation)";
  }
  return "unknown";
}

std::unique_ptr<elector> make_elector(algorithm alg, elector_context ctx) {
  switch (alg) {
    case algorithm::omega_id:
      return std::make_unique<omega_id>(std::move(ctx));
    case algorithm::omega_lc:
      return std::make_unique<omega_lc>(std::move(ctx));
    case algorithm::omega_l:
      return std::make_unique<omega_l>(std::move(ctx));
    case algorithm::omega_lc_noforward:
      return std::make_unique<omega_lc>(std::move(ctx),
                                        omega_lc::options{.forwarding = false});
    case algorithm::omega_l_nophase:
      return std::make_unique<omega_l>(std::move(ctx),
                                       omega_l::options{.phase_guard = false});
  }
  return nullptr;
}

}  // namespace omega::election
