#include "noise/noise_model.hh"

#include "common/logging.hh"
#include "surface/syndrome.hh"

namespace nisqpp {

NoiseSpec
NoiseSpec::dephasing()
{
    return {NoiseKind::Dephasing, 10.0, 0.0};
}

NoiseSpec
NoiseSpec::depolarizing()
{
    return {NoiseKind::Depolarizing, 10.0, 0.0};
}

NoiseSpec
NoiseSpec::biased(double eta)
{
    return {NoiseKind::Biased, eta, 0.0};
}

NoiseSpec
NoiseSpec::erasure()
{
    return {NoiseKind::Erasure, 10.0, 0.0};
}

std::string
noiseKindName(NoiseKind kind)
{
    switch (kind) {
      case NoiseKind::Dephasing: return "dephasing";
      case NoiseKind::Depolarizing: return "depolarizing";
      case NoiseKind::Biased: return "biased";
      case NoiseKind::Erasure: return "erasure";
    }
    panic("noiseKindName: unknown kind");
}

const std::vector<NoiseKind> &
noiseKindRegistry()
{
    static const std::vector<NoiseKind> kinds{
        NoiseKind::Dephasing, NoiseKind::Depolarizing,
        NoiseKind::Biased, NoiseKind::Erasure};
    return kinds;
}

NoiseModel::NoiseModel(const NoiseSpec &spec, double p)
    : spec_(spec), p_(p), pThresh_(Rng::threshold(p)),
      qThresh_(Rng::threshold(spec.q))
{
    require(p >= 0.0 && p <= 1.0, "NoiseModel: p out of [0,1]");
    require(spec.kind != NoiseKind::Biased || spec.eta > 0.0,
            "NoiseModel: eta must be positive");
    require(spec.q >= 0.0 && spec.q <= 1.0, "NoiseModel: q out of [0,1]");
}

void
NoiseModel::sample(Rng &rng, ErrorState &state) const
{
    const int n = state.lattice().numData();
    if (p_ <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    switch (spec_.kind) {
      case NoiseKind::Dephasing:
        if (p_ >= 1.0) {
            for (int q = 0; q < n; ++q)
                state.inject(q, Pauli::Z);
            return;
        }
        for (int q = 0; q < n; ++q)
            if (rng.coin(pThresh_))
                state.inject(q, Pauli::Z);
        return;
      case NoiseKind::Depolarizing:
        for (int q = 0; q < n; ++q) {
            if (p_ < 1.0 && !rng.coin(pThresh_))
                continue;
            switch (rng.uniformInt(3)) {
              case 0: state.inject(q, Pauli::X); break;
              case 1: state.inject(q, Pauli::Y); break;
              default: state.inject(q, Pauli::Z); break;
            }
        }
        return;
      case NoiseKind::Biased: {
        const double z_share = spec_.eta / (1.0 + spec_.eta);
        for (int q = 0; q < n; ++q) {
            if (p_ < 1.0 && !rng.coin(pThresh_))
                continue;
            if (rng.bernoulli(z_share))
                state.inject(q, Pauli::Z);
            else
                state.inject(q, rng.uniformInt(2) == 0 ? Pauli::X
                                                       : Pauli::Y);
        }
        return;
      }
      case NoiseKind::Erasure:
        for (int q = 0; q < n; ++q) {
            if (p_ < 1.0 && !rng.coin(pThresh_))
                continue;
            switch (rng.uniformInt(4)) {
              case 0: break; // erased into I: no Pauli kick
              case 1: state.inject(q, Pauli::X); break;
              case 2: state.inject(q, Pauli::Y); break;
              default: state.inject(q, Pauli::Z); break;
            }
        }
        return;
    }
}

void
NoiseModel::flipMeasurements(Rng &rng, Syndrome &syndrome) const
{
    if (spec_.q <= 0.0)
        return;
    const int n = syndrome.size();
    if (spec_.q >= 1.0) { // bernoulli(q >= 1) consumes no draw
        for (int a = 0; a < n; ++a)
            syndrome.flip(a);
        return;
    }
    for (int a = 0; a < n; ++a)
        if (rng.coin(qThresh_))
            syndrome.flip(a);
}

NoiseModel
NoiseModel::depolarizing(double p, double q)
{
    return {NoiseSpec::depolarizing().withQ(q), p};
}

NoiseModel
NoiseModel::dephasing(double p, double q)
{
    return {NoiseSpec::dephasing().withQ(q), p};
}

NoiseModel
NoiseModel::biased(double p, double eta, double q)
{
    return {NoiseSpec::biased(eta).withQ(q), p};
}

NoiseModel
NoiseModel::erasure(double p, double q)
{
    return {NoiseSpec::erasure().withQ(q), p};
}

} // namespace nisqpp
