/**
 * @file
 * Per-layer metrics of the traced round: submit spans classified by
 * what each call did, counter deltas over the measured phase, and
 * probes on a copy of the end-state learned table.
 */

#pragma once

#include <vector>

#include "round.hh"
#include "spans.hh"

namespace perfbench
{

/**
 * Metrics of the layers the traced round @a m called, read from
 * @a log and the device in @a s. Times the learned-table probes (on a
 * copy restored from serialize(), so the device is never perturbed)
 * and records their spans in @a log.
 */
std::vector<Metric> layerMetrics(SpanLog &log, const Measured &m, Setup &s);

} // namespace perfbench
