#include "robust/deadline.hpp"

namespace streak::robust {

StreakError deadlineError(const char* site) {
    StreakError err;
    err.kind = ErrorKind::DeadlineExpired;
    err.site = site;
    err.message = "wall-clock deadline exceeded";
    err.recoverable = true;
    return err;
}

}  // namespace streak::robust
