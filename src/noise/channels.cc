#include "noise/channels.hh"

#include "common/logging.hh"
#include "common/table.hh"
#include "surface/syndrome.hh"

namespace nisqpp {

DepolarizingChannel::DepolarizingChannel(double p)
    : p_(p), thresh_(Rng::threshold(p))
{
    require(p >= 0.0 && p <= 1.0, "DepolarizingChannel: p out of [0,1]");
}

void
DepolarizingChannel::sampleInto(Rng &rng, ErrorState &state) const
{
    const int n = state.lattice().numData();
    if (p_ <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    for (int q = 0; q < n; ++q) {
        if (p_ < 1.0 && !rng.coin(thresh_))
            continue;
        switch (rng.uniformInt(3)) {
          case 0: state.inject(q, Pauli::X); break;
          case 1: state.inject(q, Pauli::Y); break;
          default: state.inject(q, Pauli::Z); break;
        }
    }
}

DephasingChannel::DephasingChannel(double p)
    : p_(p), thresh_(Rng::threshold(p))
{
    require(p >= 0.0 && p <= 1.0, "DephasingChannel: p out of [0,1]");
}

void
DephasingChannel::sampleInto(Rng &rng, ErrorState &state) const
{
    const int n = state.lattice().numData();
    if (p_ <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    if (p_ >= 1.0) {
        for (int q = 0; q < n; ++q)
            state.inject(q, Pauli::Z);
        return;
    }
    for (int q = 0; q < n; ++q)
        if (rng.coin(thresh_))
            state.inject(q, Pauli::Z);
}

BiasedEtaChannel::BiasedEtaChannel(double p, double eta)
    : p_(p), eta_(eta), thresh_(Rng::threshold(p))
{
    require(p >= 0.0 && p <= 1.0, "BiasedEtaChannel: p out of [0,1]");
    require(eta > 0.0, "BiasedEtaChannel: eta must be positive");
}

std::string
BiasedEtaChannel::name() const
{
    return "biased(eta=" + TablePrinter::num(eta_, 3) + ")";
}

void
BiasedEtaChannel::sampleInto(Rng &rng, ErrorState &state) const
{
    const int n = state.lattice().numData();
    const double z_share = eta_ / (1.0 + eta_);
    if (p_ <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    for (int q = 0; q < n; ++q) {
        if (p_ < 1.0 && !rng.coin(thresh_))
            continue;
        if (rng.bernoulli(z_share))
            state.inject(q, Pauli::Z);
        else
            state.inject(q, rng.uniformInt(2) == 0 ? Pauli::X
                                                   : Pauli::Y);
    }
}

ErasureChannel::ErasureChannel(double p)
    : p_(p), thresh_(Rng::threshold(p))
{
    require(p >= 0.0 && p <= 1.0, "ErasureChannel: p out of [0,1]");
}

void
ErasureChannel::sampleInto(Rng &rng, ErrorState &state) const
{
    const int n = state.lattice().numData();
    if (p_ <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    for (int q = 0; q < n; ++q) {
        if (p_ < 1.0 && !rng.coin(thresh_))
            continue;
        switch (rng.uniformInt(4)) {
          case 0: break; // erased into I: no Pauli kick
          case 1: state.inject(q, Pauli::X); break;
          case 2: state.inject(q, Pauli::Y); break;
          default: state.inject(q, Pauli::Z); break;
        }
    }
}

MeasurementFlipChannel::MeasurementFlipChannel(double q)
    : q_(q), thresh_(Rng::threshold(q))
{
    require(q >= 0.0 && q <= 1.0,
            "MeasurementFlipChannel: q out of [0,1]");
}

void
MeasurementFlipChannel::corrupt(Rng &rng, Syndrome &syndrome) const
{
    if (q_ <= 0.0)
        return;
    const int n = syndrome.size();
    if (q_ >= 1.0) { // bernoulli(q >= 1) consumes no draw
        for (int a = 0; a < n; ++a)
            syndrome.flip(a);
        return;
    }
    for (int a = 0; a < n; ++a)
        if (rng.coin(thresh_))
            syndrome.flip(a);
}

} // namespace nisqpp
