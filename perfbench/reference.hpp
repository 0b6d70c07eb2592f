// A fixed reference workload that measures how fast this host runs right
// now. Shared machines drift by tens of percent over seconds (frequency,
// neighbours' cache and memory traffic); timing the reference next to each
// measured window lets host_commits_per_s be reported at a fixed reference
// speed, so it tracks the simulator's cost rather than the machine's load.
// It is the benchmark's own code: no change to the library can move it.
#pragma once

namespace perfbench {

/// Reference speed the host-side rates are scaled to, in M reference
/// events/s (about what a 4-core x86 container sustains unloaded).
inline constexpr double kReferenceMevents = 12.0;

/// Run the reference loop for `seconds` of wall time; returns its speed in
/// millions of reference events per second. Each reference event pops a
/// binary heap of 4096 timers, pushes a successor, rewrites one small block
/// of its own arena and calls one std::function: the kind of work a
/// simulator event does, without touching the program's heap.
double reference_mevents_per_s(double seconds);

}  // namespace perfbench
