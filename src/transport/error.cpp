#include "transport/error.h"

#include "util/strings.h"

namespace vpna::transport {

std::string_view error_kind_name(ErrorKind k) noexcept {
  switch (k) {
    case ErrorKind::kNone: return "none";
    case ErrorKind::kNotAttempted: return "not-attempted";
    case ErrorKind::kResolve: return "resolve";
    case ErrorKind::kTransport: return "transport";
    case ErrorKind::kParse: return "parse";
    case ErrorKind::kUpstream: return "upstream";
    case ErrorKind::kRedirectLimit: return "redirect-limit";
  }
  return "?";
}

Error Error::from_status(netsim::TransactStatus s) noexcept {
  if (s == netsim::TransactStatus::kOk) return none();
  return Error{ErrorKind::kTransport, s, 0};
}

std::string error_name(const Error& e) {
  std::string out{error_kind_name(e.kind)};
  // Detail suffixes: the transport status whenever one was recorded for a
  // failure, and the protocol code for upstream-reported errors.
  if (e.status != netsim::TransactStatus::kOk) {
    out += ':';
    out += netsim::status_name(e.status);
  }
  if (e.code != 0) out += util::format(":code-%u", unsigned{e.code});
  return out;
}

}  // namespace vpna::transport
