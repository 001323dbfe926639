/**
 * @file
 * Status-message and error helpers in the spirit of gem5's logging.hh.
 *
 * Two error levels are distinguished:
 *   - panic(): an internal invariant was violated (a bug in this library);
 *     aborts so that a debugger or core dump can capture the state.
 *   - fatal(): the *user* asked for something impossible (bad configuration,
 *     malformed assembly, invalid parameters); exits with an error code.
 *
 * warn()/inform() print to stderr and never stop execution.
 */

#ifndef NB_COMMON_LOGGING_HH
#define NB_COMMON_LOGGING_HH

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace nb
{

/** Exception thrown by fatal() so that library users and tests can catch
 *  user-level errors instead of terminating the process. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception thrown by panic(); indicates a library bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/**
 * Thrown when a simulated execution exceeds its cycle budget
 * (sim::Machine::setCycleBudget). Derives from FatalError so existing
 * catch sites degrade to a generic execution error; budget-aware
 * callers (Engine::runSpecOnRunner) catch it first and surface a typed
 * RunError::Code::BudgetExceeded carrying the partial progress below.
 */
class BudgetExceededError : public FatalError
{
  public:
    BudgetExceededError(const std::string &msg,
                        std::uint64_t instructions,
                        std::uint64_t cycles, std::uint64_t budget)
        : FatalError(msg), instructions_(instructions),
          cycles_(cycles), budget_(budget)
    {
    }

    /** Instructions retired before the budget tripped. */
    std::uint64_t instructions() const { return instructions_; }
    /** Cycles consumed when the budget tripped. */
    std::uint64_t cycles() const { return cycles_; }
    /** The budget that was exceeded. */
    std::uint64_t budget() const { return budget_; }

  private:
    std::uint64_t instructions_;
    std::uint64_t cycles_;
    std::uint64_t budget_;
};

namespace detail
{

void emitMessage(const char *prefix, const std::string &msg);

template <typename... Args>
std::string
formatParts(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report an unrecoverable internal error (library bug) and throw.
 *  Cold and out of line, so an assertion costs its caller a compare
 *  and a call. */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
panic(Args &&...args)
{
    std::string msg = detail::formatParts(std::forward<Args>(args)...);
    detail::emitMessage("panic: ", msg);
    throw PanicError(msg);
}

/** Report an unrecoverable user error (bad input/configuration) and throw.
 *  Cold and out of line, like panic(). */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
fatal(Args &&...args)
{
    std::string msg = detail::formatParts(std::forward<Args>(args)...);
    detail::emitMessage("fatal: ", msg);
    throw FatalError(msg);
}

/** Warn about a condition that might lead to surprising results. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitMessage(
        "warn: ", detail::formatParts(std::forward<Args>(args)...));
}

/** Print a purely informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emitMessage(
        "info: ", detail::formatParts(std::forward<Args>(args)...));
}

/** Globally silence warn()/inform() (used by benches for clean output). */
void setQuiet(bool quiet);
bool isQuiet();

/**
 * RAII guard: while an instance is alive on this thread, fatal()
 * still throws FatalError but does not print to stderr first. Used by
 * code that catches FatalErrors and reports them as data (e.g.
 * Session::run), so expected failures do not spam stderr. panic() is
 * never suppressed.
 */
class ScopedFatalMessageSuppression
{
  public:
    ScopedFatalMessageSuppression();
    ~ScopedFatalMessageSuppression();
    ScopedFatalMessageSuppression(
        const ScopedFatalMessageSuppression &) = delete;
    ScopedFatalMessageSuppression &operator=(
        const ScopedFatalMessageSuppression &) = delete;
};

bool fatalMessagesSuppressed();

/** panic() unless the given condition holds. */
#define NB_ASSERT(cond, ...)                                                  \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::nb::panic("assertion '", #cond, "' failed: ", __VA_ARGS__);     \
        }                                                                     \
    } while (0)

} // namespace nb

#endif // NB_COMMON_LOGGING_HH
