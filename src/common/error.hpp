/**
 * @file
 * Error reporting for the PyPIM stack.
 *
 * Two classes of failure, following the gem5 fatal/panic convention:
 *
 *  - pypim::Error (thrown by pypim::fatal): the caller misused the
 *    library (bad configuration, invalid arguments, out-of-memory in
 *    the PIM allocator, ...). Recoverable by the caller.
 *  - pypim::InternalError (thrown by pypim::panic): an internal
 *    invariant was violated — a bug in PyPIM itself, e.g. the driver
 *    emitted a malformed micro-operation. Never the user's fault.
 */
#ifndef PYPIM_COMMON_ERROR_HPP
#define PYPIM_COMMON_ERROR_HPP

#include <stdexcept>
#include <string>

namespace pypim
{

/** Exception for user-caused errors (bad arguments, configuration). */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception for internal invariant violations (PyPIM bugs). */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &msg)
        : std::logic_error(msg) {}
};

/** Throw an Error with a printf-free formatted message. */
[[noreturn]] void fatal(const std::string &msg);

/** Throw an InternalError; use for conditions that indicate a bug. */
[[noreturn]] void panic(const std::string &msg);

/*
 * Checks on per-op paths must not format their message unless they
 * throw. A string literal binds to the const char * overloads below,
 * which build the std::string on the throwing branch only; a message
 * that needs std::to_string belongs inside `if (cond) fatal(...)`.
 */

/** Throw an Error if @p cond holds. */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond) [[unlikely]]
        fatal(msg);
}

/** Throw an Error if @p cond holds. */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond) [[unlikely]]
        fatal(msg);
}

/** Throw an InternalError if @p cond holds. */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond) [[unlikely]]
        panic(msg);
}

/** Throw an InternalError if @p cond holds. */
inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond) [[unlikely]]
        panic(msg);
}

} // namespace pypim

#endif // PYPIM_COMMON_ERROR_HPP
