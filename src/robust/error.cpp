#include "robust/error.hpp"

#include <utility>

namespace streak::robust {

const char* errorKindName(ErrorKind kind) {
    switch (kind) {
        case ErrorKind::InvalidInput: return "invalid-input";
        case ErrorKind::DeadlineExpired: return "deadline-expired";
        case ErrorKind::FaultInjected: return "fault-injected";
        case ErrorKind::Internal: return "internal";
    }
    return "internal";
}

int exitCodeFor(ErrorKind kind) {
    switch (kind) {
        case ErrorKind::InvalidInput: return 3;
        case ErrorKind::DeadlineExpired: return 4;
        case ErrorKind::FaultInjected: return 6;
        case ErrorKind::Internal: return 7;
    }
    return 7;
}

std::string StreakError::describe() const {
    std::string out = errorKindName(kind);
    if (!stage.empty()) {
        out += " at ";
        out += stage;
    }
    if (!site.empty()) {
        out += " (";
        out += site;
        out += ")";
    }
    if (!message.empty()) {
        out += ": ";
        out += message;
    }
    return out;
}

StreakException::StreakException(StreakError error)
    : std::runtime_error(error.describe()),
      error_(std::move(error)),
      what_(error_.describe()) {}

void StreakException::noteStage(const std::string& stage) {
    if (!error_.stage.empty() || stage.empty()) return;
    error_.stage = stage;
    what_ = error_.describe();
}

void raise(StreakError error) { throw StreakException(std::move(error)); }

}  // namespace streak::robust
