/**
 * @file
 * TimedDecoder: a forwarding Decoder decorator that records one span
 * per decode call into the benchmark's per-thread span recorder. It
 * forwards every virtual of the Decoder interface to the wrapped
 * decoder, so corrections, telemetry hooks and exported counters are
 * exactly the wrapped decoder's; the self-test in main.cc checks that
 * traced and untraced runs produce identical fingerprints.
 */

#ifndef PERFBENCH_TIMED_DECODER_HH
#define PERFBENCH_TIMED_DECODER_HH

#include <memory>
#include <string>
#include <utility>

#include "decoders/decoder.hh"
#include "engine/sweep.hh"
#include "spans.hh"

namespace perfbench {

class TimedDecoder final : public nisqpp::Decoder
{
  public:
    /**
     * @param inner  The decoder every call is forwarded to.
     * @param label  Span label of scalar and batch decodes.
     * @param windowLabel Span label of window decodes.
     */
    TimedDecoder(std::unique_ptr<nisqpp::Decoder> inner,
                 std::uint16_t label, std::uint16_t windowLabel)
        : Decoder(inner->lattice(), inner->type()), inner_(std::move(inner)),
          label_(label), windowLabel_(windowLabel)
    {}

    nisqpp::Correction
    decode(const nisqpp::Syndrome &syndrome) override
    {
        Span span(label_);
        return inner_->decode(syndrome);
    }

    void
    decode(const nisqpp::Syndrome &syndrome,
           nisqpp::TrialWorkspace &ws) override
    {
        Span span(label_);
        inner_->decode(syndrome, ws);
    }

    void
    decodeBatch(const nisqpp::Syndrome *const *syndromes, std::size_t count,
                nisqpp::TrialWorkspace &ws) override
    {
        Span span(label_, static_cast<std::uint32_t>(count));
        inner_->decodeBatch(syndromes, count, ws);
    }

    void
    decodeWindow(const nisqpp::SyndromeWindow &window,
                 nisqpp::TrialWorkspace &ws) override
    {
        Span span(windowLabel_);
        inner_->decodeWindow(window, ws);
    }

    void
    decodeWindowBatch(const nisqpp::SyndromeWindow *const *windows,
                      std::size_t count, nisqpp::TrialWorkspace &ws) override
    {
        Span span(windowLabel_, static_cast<std::uint32_t>(count));
        inner_->decodeWindowBatch(windows, count, ws);
    }

    bool windowAware() const override { return inner_->windowAware(); }

    bool
    correctionClearsSyndrome() const override
    {
        return inner_->correctionClearsSyndrome();
    }

    const nisqpp::MeshDecodeStats *
    meshStats(std::size_t lane) const override
    {
        return inner_->meshStats(lane);
    }

    const nisqpp::TieredDecodeStats *
    tieredStats(std::size_t lane) const override
    {
        return inner_->tieredStats(lane);
    }

    std::string name() const override { return inner_->name(); }

    void
    exportMetrics(nisqpp::obs::MetricSet &out) const override
    {
        inner_->exportMetrics(out);
    }

  private:
    std::unique_ptr<nisqpp::Decoder> inner_;
    std::uint16_t label_;
    std::uint16_t windowLabel_;
};

/**
 * Wrap @p factory so every decoder it builds is a TimedDecoder whose
 * spans are labelled `<prefix>.d<d>.decode` (scalar and batch calls)
 * and `<prefix>.window.d<d>.decode` (window calls), e.g. prefix
 * `core.mesh` or `decoders.union_find`.
 */
inline nisqpp::DecoderFactory
timedFactory(nisqpp::DecoderFactory factory, std::string prefix)
{
    return [factory = std::move(factory), prefix = std::move(prefix)](
               const nisqpp::SurfaceLattice &lattice, nisqpp::ErrorType type) {
        std::string d = "d";
        d += std::to_string(lattice.distance());
        return std::unique_ptr<nisqpp::Decoder>(new TimedDecoder(
            factory(lattice, type),
            internLabel(prefix + "." + d + ".decode"),
            internLabel(prefix + ".window." + d + ".decode")));
    };
}

} // namespace perfbench

#endif // PERFBENCH_TIMED_DECODER_HH
