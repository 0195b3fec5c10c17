// Host-speed reference for the end-to-end benchmark.
//
// The benchmark runs on a few cores of a shared host. Its neighbours come
// and go over minutes, and the same code then takes 10-50% longer for
// whole runs. A fixed piece of work timed in the same process, between the
// benchmark's repetitions, sees much the same slowdown; e2e_bench divides
// it out of every gated number (README.md, "Host-speed adjustment").
//
// This file's .cpp is compiled on its own, without the library's compile
// options, so a change to the library's build cannot change the reference.
#pragma once

namespace treemem::e2e {

/// Wall seconds of one pass of the reference: a vector multiply-add loop,
/// a dependent integer multiply chain and a stream over 64 MiB, run one
/// after the other on the calling thread. The buffer is allocated and
/// touched on the first call, before its timing starts.
double time_host_reference();

}  // namespace treemem::e2e
