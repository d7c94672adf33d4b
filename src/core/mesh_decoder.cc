#include "core/mesh_decoder.hh"

#include <algorithm>
#include <bit>
#include <ostream>
#include <type_traits>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"

namespace nisqpp {

namespace {

constexpr int dN = static_cast<int>(Dir::N);
constexpr int dE = static_cast<int>(Dir::E);
constexpr int dS = static_cast<int>(Dir::S);
constexpr int dW = static_cast<int>(Dir::W);

/// kRev[d] = index of the reversed travel direction.
constexpr int kRev[kNumDirs] = {dS, dW, dN, dE};

// Element accessors bridging the lane word types live in common/simd.hh
// so the union-find batch engine shares them.
using simd::anyW;
using simd::elementsOf;
using simd::elemOf;
using simd::orElem;

} // namespace

template <typename W>
void
MeshDecoder::buildEngine(LaneEngine<W> &e, int max_lanes) const
{
    const int n = lattice().gridSize();
    constexpr int elements = elementsOf<W>();
    const int per_elem =
        std::max(1, std::min(max_lanes, 64 / span_));
    e.perElem = per_elem;
    e.lanes = std::min(max_lanes, per_elem * elements);

    // Lane addresses: lanes fill element 0's sub-lanes first, then
    // element 1's, ... so the lanes of one element are contiguous.
    for (int l = 0; l < e.lanes; ++l) {
        e.laneElem[l] = l / per_elem;
        e.laneBase[l] = (l % per_elem) * span_;
        const std::uint64_t low = span_ >= 64
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << span_) - 1;
        e.laneSub[l] = low << e.laneBase[l];
        e.laneMask[l] = W{};
        orElem(e.laneMask[l], e.laneElem[l], e.laneSub[l]);
    }

    // Single-lane row masks, then replicated into every lane.
    std::vector<std::uint64_t> interior(span_, 0), bnd(span_, 0);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            interior[r + 1] |= std::uint64_t{1} << (c + 1);

    if (config_.boundaryMechanism) {
        // Without the request-grant arbitration both rings would
        // answer the same grow rays with pair pulses, composing two
        // boundary chains into a full crossing; the non-arbitrated
        // variant therefore hardwires a single responding side (the
        // final design lets the grant pick either side).
        const bool both_sides = config_.equidistantMechanism;
        if (type() == ErrorType::Z) {
            // Z-error chains terminate west/east; ring modules sit next
            // to the boundary data qubits (even interior rows).
            for (int r = 0; r < n; r += 2) {
                bnd[r + 1] |= std::uint64_t{1} << 0;
                if (both_sides)
                    bnd[r + 1] |= std::uint64_t{1} << (n + 1);
            }
        } else {
            for (int c = 0; c < n; c += 2) {
                bnd[0] |= std::uint64_t{1} << (c + 1);
                if (both_sides)
                    bnd[span_ - 1] |= std::uint64_t{1} << (c + 1);
            }
        }
    }

    e.interior.assign(span_, W{});
    e.bnd.assign(span_, W{});
    e.valid.assign(span_, W{});
    W edgeE{}, edgeW{};
    for (int l = 0; l < e.lanes; ++l) {
        const int el = e.laneElem[l];
        const int base = e.laneBase[l];
        for (int r = 0; r < span_; ++r) {
            orElem(e.interior[r], el, interior[r] << base);
            orElem(e.bnd[r], el, bnd[r] << base);
        }
        // Shift guards: drop each lane's edge column before an
        // east/west shift — exactly the bits the valid mask would kill
        // after an unguarded scalar shift, so guarded shifts are
        // trajectory-neutral while keeping lanes isolated.
        orElem(edgeE, el, std::uint64_t{1} << (base + span_ - 1));
        orElem(edgeW, el, std::uint64_t{1} << base);
    }
    for (int r = 0; r < span_; ++r)
        e.valid[r] = e.interior[r] | e.bnd[r];
    e.guardE = ~edgeE;
    e.guardW = ~edgeW;

    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch,
                         &e.gOut, &e.rqOut, &e.grOut, &e.prOut})
        for (auto &plane : *planes)
            plane.assign(span_, W{});
    e.formed.assign(span_, W{});
    e.fired.assign(span_, W{});
    e.hot.assign(span_, W{});
    e.chain.assign(span_, W{});
    e.fire.assign(span_, W{});
}

MeshDecoder::MeshDecoder(const SurfaceLattice &lattice, ErrorType type,
                         const MeshConfig &config)
    : Decoder(lattice, type), config_(config),
      span_(lattice.gridSize() + 2), width_(simd::activeWidth())
{
    require(span_ <= 62, "MeshDecoder: lattice too wide for 64-bit rows");
    cycleCap_ = 128 * span_;
    quiescence_ = 3 * span_ + 10;
    buildEngine(scalar_, 1);
    // Build only the latched width's batch engine: lane results are
    // indexed by trial and identical across widths, so the choice only
    // moves throughput (and the memory of the unbuilt engines).
    switch (width_) {
      case simd::Width::Scalar:
        buildEngine(batch64_, kMaxLanes);
        batchLanes_ = batch64_.lanes;
        break;
      case simd::Width::V256:
        buildEngine(batch256_, kMaxLanes);
        batchLanes_ = batch256_.lanes;
        break;
      case simd::Width::V512:
        buildEngine(batch512_, kMaxLanes);
        batchLanes_ = batch512_.lanes;
        break;
    }
}

template <typename W>
void
MeshDecoder::stepLanes(LaneEngine<W> &e,
                       MeshDecodeStats *const *laneStats)
{
    // Lanes inside their reset window at cycle entry: grow emission is
    // blocked there, and grow/request/grant outputs are cleared again
    // below unless the lane fires this very cycle.
    W inReset{};
    for (int l = 0; l < e.lanes; ++l)
        if (e.resetCountdown[l] > 0)
            orElem(inReset, e.laneElem[l], e.laneSub[l]);

    W fire_any{};
    const W guardE = e.guardE, guardW = e.guardW;

    // The planes hold last cycle's *emissions*; each row derives the
    // shifted inputs on the fly (a signal traveling East into row r is
    // last cycle's East emission of the same row, one column over),
    // saving a full materialization pass per plane per cycle.
    const auto inE = [&](const std::vector<W> &out, int r) {
        return ((out[r] & guardE) << 1) & e.valid[r];
    };
    const auto inW = [&](const std::vector<W> &out, int r) {
        return ((out[r] & guardW) >> 1) & e.valid[r];
    };
    const auto inN = [&](const std::vector<W> &out, int r) {
        return (r + 1 < span_ ? out[r + 1] : W{}) & e.valid[r];
    };
    const auto inS = [&](const std::vector<W> &out, int r) {
        return (r > 0 ? out[r - 1] : W{}) & e.valid[r];
    };

    for (int r = 0; r < span_; ++r) {
        const W hot = e.hot[r];
        DirRow<W> pr_in{inN(e.pr[dN], r), inE(e.pr[dE], r),
                        inS(e.pr[dS], r), inW(e.pr[dW], r)};
        const W pr_in_any =
            pr_in[dN] | pr_in[dE] | pr_in[dS] | pr_in[dW];

        // Pair pulses reaching a hot module complete a pairing.
        e.fire[r] = pr_in_any & hot;
        fire_any |= e.fire[r];

        // Grow: hot modules emit in all directions (blocked during
        // reset); interior modules pass. In the variants without the
        // equidistant mechanism the meets happen on grow trains, so a
        // formed module consumes them.
        DirRow<W> grow_in{inN(e.g[dN], r), inE(e.g[dE], r),
                          inS(e.g[dS], r), inW(e.g[dW], r)};
        const W met_grow =
            config_.equidistantMechanism ? W{} : e.formed[r];
        for (int d = 0; d < kNumDirs; ++d)
            e.gOut[d][r] = (grow_in[d] & e.interior[r] & ~met_grow) |
                           (hot & ~inReset);

        // Meets of grow rays: requests in the final design, pair pulses
        // directly in the variants without the equidistant mechanism.
        //
        // A module that formed a pair latches `formed` (sticky until
        // the global reset) and consumes the trains that met there: it
        // emits exactly one pair pulse per leg and stops passing the
        // met trains, both this cycle (met_now) and afterwards.
        // Without this, the overlap region of two persistent trains
        // keeps expanding and excess pair pulses leak through the
        // cleared endpoints (see DESIGN.md).
        const W formed = e.formed[r];
        const W form_allow = e.interior[r] & ~hot & ~formed;
        DirRow<W> pr_raw{W{}, W{}, W{}, W{}};
        if (config_.equidistantMechanism) {
            DirRow<W> rq_emit{W{}, W{}, W{}, W{}};
            emitFromMeets(grow_in, e.interior[r] & ~hot, rq_emit);
            DirRow<W> rq_in{inN(e.rq[dN], r), inE(e.rq[dE], r),
                            inS(e.rq[dS], r), inW(e.rq[dW], r)};
            for (int d = 0; d < kNumDirs; ++d) {
                e.rqOut[d][r] = (rq_in[d] & e.interior[r] & ~hot) |
                                rq_emit[d];
                // Boundary modules answer grow with a request.
                e.rqOut[d][r] |= grow_in[kRev[d]] & e.bnd[r];
            }

            // Hot modules latch exactly one grant.
            DirRow<W> latch{e.grantLatch[dN][r], e.grantLatch[dE][r],
                            e.grantLatch[dS][r], e.grantLatch[dW][r]};
            updateGrantLatch(rq_in, hot, latch);
            DirRow<W> gr_in{inN(e.gr[dN], r), inE(e.gr[dE], r),
                            inS(e.gr[dS], r), inW(e.gr[dW], r)};
            for (int d = 0; d < kNumDirs; ++d) {
                e.grantLatch[d][r] = latch[d];
                // Hot modules do not pass foreign grant trains (they
                // emit their own); a passed-through train would form
                // spurious meets beyond the endpoint.
                e.grOut[d][r] =
                    (gr_in[d] & e.interior[r] & ~hot & ~formed) |
                    (latch[d] & hot);
            }

            // Pair pulses form where grant trains meet, and at boundary
            // modules that received a grant.
            emitFromMeets(gr_in, form_allow, pr_raw);
            for (int d = 0; d < kNumDirs; ++d)
                pr_raw[d] |= gr_in[kRev[d]] & e.bnd[r] & ~formed;
            const W met_now =
                pr_raw[dN] | pr_raw[dE] | pr_raw[dS] | pr_raw[dW];
            for (int d = 0; d < kNumDirs; ++d)
                e.grOut[d][r] &= ~met_now | (e.grantLatch[d][r] & hot);
            e.formed[r] = formed | met_now;
        } else {
            emitFromMeets(grow_in, form_allow, pr_raw);
            for (int d = 0; d < kNumDirs; ++d)
                pr_raw[d] |= grow_in[kRev[d]] & e.bnd[r] & ~formed;
            const W met_now =
                pr_raw[dN] | pr_raw[dE] | pr_raw[dS] | pr_raw[dW];
            for (int d = 0; d < kNumDirs; ++d)
                e.gOut[d][r] &= ~met_now | hot;
            e.formed[r] = formed | met_now;
        }

        // Emission is one pulse per formation (formed gating above);
        // non-hot interior modules pass, hot modules absorb. An
        // endpoint cleared this round keeps absorbing until the
        // round's pair pulses have drained: otherwise a second pulse
        // aimed at it (a competing pairing, or the second boundary
        // ring answering the same grow rays in the variants without
        // request-grant arbitration) leaks through and paints a bogus
        // crossing chain.
        const W absorb = hot | e.fired[r];
        for (int d = 0; d < kNumDirs; ++d)
            e.prOut[d][r] =
                (pr_in[d] & e.interior[r] & ~absorb) | pr_raw[d];

        // Chain membership: everything a pair pulse touches, including
        // the emitting module and the absorbing endpoints. Touches
        // TOGGLE membership (XOR): chains from successive pairing
        // rounds that cross the same data qubit must cancel, exactly
        // as destructive-read DRO error outputs drained after every
        // pairing would accumulate in the control layer's Pauli frame.
        e.chain[r] ^= e.prOut[dN][r] | e.prOut[dE][r] |
                      e.prOut[dS][r] | e.prOut[dW][r] | e.fire[r];
    }

    // Complete pairings: clear latches; maybe fire the per-lane global
    // reset. `resetNow` marks lanes whose reset fires this cycle,
    // `clearHeld` the lanes mid-reset-window without a fire — the two
    // lane sets whose grow/request/grant outputs are suppressed.
    W resetNow{};
    W fireLanes{};
    if (anyW(fire_any)) {
        for (int r = 0; r < span_; ++r) {
            const W fire = e.fire[r];
            if (!anyW(fire))
                continue;
            for (int el = 0; el < elementsOf<W>(); ++el) {
                const std::uint64_t f = elemOf(fire, el);
                if (!f)
                    continue;
                const int first = el * e.perElem;
                const int last = std::min(first + e.perElem, e.lanes);
                for (int l = first; l < last; ++l) {
                    const int cleared =
                        std::popcount(f & e.laneSub[l]);
                    laneStats[l]->pairings += cleared;
                    e.hotCount[l] -= cleared;
                }
            }
            e.hot[r] &= ~fire;
            e.fired[r] |= fire;
            for (int d = 0; d < kNumDirs; ++d)
                e.grantLatch[d][r] &= ~fire;
        }
        for (int l = 0; l < e.lanes; ++l) {
            if (!(elemOf(fire_any, e.laneElem[l]) & e.laneSub[l]))
                continue;
            orElem(fireLanes, e.laneElem[l], e.laneSub[l]);
            e.lastFire[l] = e.cycle;
            if (config_.resetMechanism) {
                ++laneStats[l]->resets;
                e.resetCountdown[l] = config_.resetCycles;
                orElem(resetNow, e.laneElem[l], e.laneSub[l]);
            }
        }
    }
    const W clearHeld = inReset & ~fireLanes;
    const W clear_out = resetNow | clearHeld;
    if (anyW(clear_out)) {
        const W keep = ~clear_out;
        for (int r = 0; r < span_; ++r)
            for (int d = 0; d < kNumDirs; ++d) {
                e.gOut[d][r] &= keep;
                e.rqOut[d][r] &= keep;
                e.grOut[d][r] &= keep;
            }
    }
    if (anyW(resetNow)) {
        const W keep = ~resetNow;
        for (int r = 0; r < span_; ++r) {
            // In the final design in-flight pair pulses are exempt so
            // the farther chain leg completes (Section VI-B); the
            // paper ties that exemption to the request-grant design,
            // so the intermediate variants clear them too.
            if (!config_.equidistantMechanism)
                for (int d = 0; d < kNumDirs; ++d)
                    e.prOut[d][r] &= keep;
            e.formed[r] &= keep;
            for (int d = 0; d < kNumDirs; ++d)
                e.grantLatch[d][r] &= keep;
        }
    }

    // End of a lane's reset window: its cleared endpoints resume
    // passing (spurious same-round pulses are gone by now in the final
    // design; the variants without the pair exemption cleared them at
    // the reset itself).
    W windowOver{};
    for (int l = 0; l < e.lanes; ++l) {
        if (e.resetCountdown[l] > 0 && --e.resetCountdown[l] == 0)
            orElem(windowOver, e.laneElem[l], e.laneSub[l]);
    }
    if (anyW(windowOver))
        for (int r = 0; r < span_; ++r)
            e.fired[r] &= ~windowOver;

    // The pairing round is over once a lane's pair pulses have all
    // drained: occupancy of next cycle's (shifted) pair inputs,
    // derived without materializing them.
    W pr_occ{};
    for (int r = 0; r < span_; ++r)
        pr_occ |= inN(e.prOut[dN], r) | inE(e.prOut[dE], r) |
                  inS(e.prOut[dS], r) | inW(e.prOut[dW], r);
    e.prOcc = pr_occ;
    W drained{};
    for (int l = 0; l < e.lanes; ++l)
        if (!(elemOf(pr_occ, e.laneElem[l]) & e.laneSub[l]))
            orElem(drained, e.laneElem[l], e.laneSub[l]);
    if (anyW(drained))
        for (int r = 0; r < span_; ++r)
            e.fired[r] &= ~drained;

    if constexpr (std::is_same_v<W, std::uint64_t>) {
        if (trace && e.lanes == 1) {
            // Print next cycle's in-flight signals (the shifted
            // inputs), matching the historical scalar trace format.
            auto plane_cells =
                [&](const typename LaneEngine<W>::Planes &out,
                    const char *tag) {
                    for (int d = 0; d < kNumDirs; ++d)
                        for (int r = 0; r < span_; ++r) {
                            W w = d == dN   ? inN(out[dN], r)
                                  : d == dE ? inE(out[dE], r)
                                  : d == dS ? inS(out[dS], r)
                                            : inW(out[dW], r);
                            while (w) {
                                const int bit = std::countr_zero(w);
                                w &= w - 1;
                                *trace << ' ' << tag << "NESW"[d]
                                       << '(' << r - 1 << ','
                                       << bit - 1 << ')';
                            }
                        }
                };
            *trace << "cycle " << e.cycle << " reset="
                   << e.resetCountdown[0] << " |";
            plane_cells(e.prOut, "pr");
            plane_cells(e.grOut, "gr");
            *trace << '\n';
        }
    }

    // Publish this cycle's emissions as next cycle's inputs-to-derive.
    std::swap(e.g, e.gOut);
    if (config_.equidistantMechanism) {
        std::swap(e.rq, e.rqOut);
        std::swap(e.gr, e.grOut);
    }
    std::swap(e.pr, e.prOut);
    ++e.cycle;
}

void
MeshDecoder::decode(const Syndrome &syndrome, TrialWorkspace &ws)
{
    ws.correction.clear();
    const Syndrome *syn = &syndrome;
    Correction *out = &ws.correction;
    batchStats_.resize(1);
    decodeLanes(scalar_, &syn, 1, &out, batchStats_.data());
}

void
MeshDecoder::decodeBatch(const Syndrome *const *syndromes,
                         std::size_t count, TrialWorkspace &ws)
{
    if (count == 0)
        return;
    if (ws.laneCorrections.size() < count)
        ws.laneCorrections.resize(count);
    batchStats_.resize(count);
    outScratch_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        ws.laneCorrections[i].clear();
        outScratch_[i] = &ws.laneCorrections[i];
    }
    switch (width_) {
      case simd::Width::Scalar:
        decodeLanes(batch64_, syndromes, static_cast<int>(count),
                    outScratch_.data(), batchStats_.data());
        break;
      case simd::Width::V256:
        decodeLanes(batch256_, syndromes, static_cast<int>(count),
                    outScratch_.data(), batchStats_.data());
        break;
      case simd::Width::V512:
        decodeLanes(batch512_, syndromes, static_cast<int>(count),
                    outScratch_.data(), batchStats_.data());
        break;
    }
}

const MeshDecodeStats *
MeshDecoder::meshStats(std::size_t lane) const
{
    return lane < batchStats_.size() ? &batchStats_[lane] : nullptr;
}

void
MeshDecoder::exportMetrics(obs::MetricSet &out) const
{
    if (decodes_ == 0)
        return;
    out.add("decoder.mesh.decodes", decodes_);
    out.add("decoder.mesh.cycles", cyclesTotal_);
    out.add("decoder.mesh.pairings", pairingsTotal_);
    out.add("decoder.mesh.resets", resetsTotal_);
    out.add("decoder.mesh.cycles_capped", cappedTotal_);
    out.add("decoder.mesh.quiesced", quiescedTotal_);
}

template <typename W>
void
MeshDecoder::finishLane(LaneEngine<W> &e, int lane, Correction &out,
                        MeshDecodeStats &stats)
{
    stats.remainingHot = e.hotCount[lane];

    // Every completed trial — scalar or batched — retires through
    // here exactly once, so this is the single accumulation point for
    // the deterministic work counters (stats.cycles and the exit
    // flags are final by now; pairings/resets latched in stepLanes).
    ++decodes_;
    cyclesTotal_ += static_cast<std::uint64_t>(stats.cycles);
    pairingsTotal_ += static_cast<std::uint64_t>(stats.pairings);
    resetsTotal_ += static_cast<std::uint64_t>(stats.resets);
    if (stats.timedOut)
        ++cappedTotal_;
    if (stats.quiesced)
        ++quiescedTotal_;

    // Harvest this lane's chain bits into data-qubit flips (ascending
    // row, then column — identical to the scalar readout order).
    const int el = e.laneElem[lane];
    const int base = e.laneBase[lane];
    const int n = lattice().gridSize();
    for (int r = 0; r < n; ++r) {
        std::uint64_t row = elemOf(e.chain[r + 1], el) &
                            elemOf(e.interior[r + 1], el) &
                            e.laneSub[lane];
        while (row) {
            const int bit = std::countr_zero(row);
            row &= row - 1;
            const Coord rc{r, bit - base - 1};
            if (lattice().role(rc) == SiteRole::Data)
                out.dataFlips.push_back(lattice().dataIndex(rc));
        }
    }

    // Zero the lane everywhere: once freed it contributes no signals,
    // no firings and no stats, and the next trial injected into it
    // starts from clean planes.
    const W keep = ~e.laneMask[lane];
    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch})
        for (auto &plane : *planes)
            for (W &w : plane)
                w &= keep;
    for (auto *rows : {&e.formed, &e.fired, &e.hot, &e.chain})
        for (W &w : *rows)
            w &= keep;
    e.resetCountdown[lane] = 0;
    e.hotCount[lane] = 0;
    e.active[lane] = false;
    e.prOcc &= keep; // the lane's pair pulses are gone with it
}

template <typename W>
void
MeshDecoder::decodeLanes(LaneEngine<W> &e,
                         const Syndrome *const *syndromes, int count,
                         Correction *const *outs, MeshDecodeStats *stats)
{
    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch})
        for (auto &plane : *planes)
            std::fill(plane.begin(), plane.end(), W{});
    for (auto *rows : {&e.formed, &e.fired, &e.hot, &e.chain})
        std::fill(rows->begin(), rows->end(), W{});
    e.cycle = 0;
    e.prOcc = W{};

    // Per-lane trial bookkeeping. Every comparison against the global
    // cycle counter is relative to the lane's start cycle, so a trial
    // injected mid-flight behaves exactly as if it were decoded alone
    // from cycle 0.
    MeshDecodeStats dummy;
    std::array<MeshDecodeStats *, kMaxLanes> laneStats;
    std::array<Correction *, kMaxLanes> laneOut{};
    std::array<int, kMaxLanes> start{};
    for (int l = 0; l < e.lanes; ++l) {
        laneStats[l] = &dummy;
        e.active[l] = false;
        e.resetCountdown[l] = 0;
        e.lastFire[l] = 0;
        e.hotCount[l] = 0;
    }

    int next = 0; ///< next trial to inject
    int done = 0; ///< trials finished
    while (done < count) {
        for (int l = 0; l < e.lanes; ++l) {
            // Retire-and-refill loop: a lane may complete an injected
            // empty syndrome instantly and take another in the same
            // cycle.
            for (;;) {
                if (!e.active[l]) {
                    if (next >= count)
                        break;
                    const Syndrome &syn = *syndromes[next];
                    require(syn.type() == type(),
                            "MeshDecoder: syndrome type mismatch");
                    stats[next] = MeshDecodeStats{};
                    laneStats[l] = &stats[next];
                    laneOut[l] = outs[next];
                    start[l] = e.cycle;
                    e.lastFire[l] = e.cycle;
                    e.hotCount[l] = syn.weight();
                    e.active[l] = true;
                    const int el = e.laneElem[l];
                    const int base = e.laneBase[l];
                    syn.forEachHot([&](int a) {
                        const Coord rc =
                            lattice().ancillaCoord(type(), a);
                        orElem(e.hot[rc.row + 1], el,
                               std::uint64_t{1}
                                   << (base + rc.col + 1));
                    });
                    ++next;
                }
                const bool pr_empty =
                    !(elemOf(e.prOcc, e.laneElem[l]) & e.laneSub[l]);
                if (e.hotCount[l] == 0 && pr_empty) {
                    // completed
                } else if (e.cycle - start[l] >= cycleCap_) {
                    laneStats[l]->timedOut = true;
                } else if (e.cycle - e.lastFire[l] > quiescence_) {
                    laneStats[l]->quiesced = true;
                } else {
                    break; // still stepping
                }
                laneStats[l]->cycles = e.cycle - start[l];
                finishLane(e, l, *laneOut[l], *laneStats[l]);
                laneStats[l] = &dummy;
                ++done;
            }
        }
        if (done >= count)
            break;
        stepLanes(e, laneStats.data());
    }
}

} // namespace nisqpp
