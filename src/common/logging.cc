#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace nisqpp {

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace nisqpp
