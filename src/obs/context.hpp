// The observability state of one simulation run: its metrics registry,
// tracer, latency attribution, telemetry sampler and flight recorder. Every
// sim::Simulator owns one (sim.obs()), and every instrumented component
// reaches it through the Simulator& it already holds, so two clusters in one
// process never share an instrument. The context is held by shared_ptr so a
// bench session can export it after the cluster that filled it is gone.
#pragma once

#include "obs/attribution.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace p4ce::obs {

struct Context {
  Context() : tracer(attribution), sampler(metrics), recorder(sampler, tracer) {}
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  MetricsRegistry metrics;
  LatencyAttribution attribution;
  Tracer tracer;  ///< feeds `attribution`
  Sampler sampler;  ///< snapshots `metrics`
  FlightRecorder recorder;  ///< freezes `sampler` frames and `tracer` rounds
};

}  // namespace p4ce::obs
