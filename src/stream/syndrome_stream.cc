#include "stream/syndrome_stream.hh"

#include "common/logging.hh"

namespace nisqpp {

SyndromeStream::SyndromeStream(const SurfaceLattice &lattice,
                               const NoiseModel &model, ErrorType type,
                               std::uint64_t seed, double cycleNs)
    : lattice_(lattice), model_(model), type_(type), rng_(seed),
      cycleNs_(cycleNs), state_(lattice), syndrome_(lattice, type)
{
    require(cycleNs > 0,
            "SyndromeStream: syndrome cycle time must be positive");
}

const Syndrome &
SyndromeStream::emit()
{
    model_.sample(rng_, state_);
    extractSyndromeInto(state_, type_, syndrome_);
    model_.flipMeasurements(rng_, syndrome_);
    return syndrome_;
}

void
SyndromeStream::extractPerfectInto(Syndrome &out) const
{
    extractSyndromeInto(state_, type_, out);
}

} // namespace nisqpp
