#pragma once
/// \file stream.hpp
/// Simulated streams and events (cudaStream_t / cudaEvent_t analogues).
///
/// A Stream is a handle onto one of a Device's engine clocks (compute or
/// DMA). Work enqueued on a stream serializes on that engine; wait(event)
/// models cudaStreamWaitEvent by pushing the engine clock forward to the
/// event's completion time, and record() captures the engine's current
/// simulated time as an Event. Because the substrate executes kernels
/// functionally on the host (data moves immediately; only *time* is
/// modeled), dependency edges reduce to these clock constraints -- the
/// host-side issue order already matches a valid dependency order, so a
/// pipeline expressed with streams/events is deterministic by construction.
///
/// Typical overlapped-pipeline shape:
///
///   Stream compute(dev);                 // SM engine
///   auto t = compute.launch(cfg, body);  // advances compute clock
///   Event done = compute.record();
///   auto r = xfer.copy_2d(..., done, sim::Engine::kDma);
///                                        // DMA starts when kernel done
///   other_compute.wait(r.done);          // consumer waits on the copy

#include "mgs/sim/timeline.hpp"
#include "mgs/simt/device.hpp"
#include "mgs/simt/launch.hpp"

namespace mgs::simt {

/// Completion marker in simulated time. A default-constructed Event is
/// "already complete" (time 0), so it can be used as a no-op dependency.
struct Event {
  double seconds = 0.0;

  /// Later of two completion times (joining two dependency edges).
  static Event after(const Event& a, const Event& b) {
    return Event{a.seconds > b.seconds ? a.seconds : b.seconds};
  }
};

/// In-order work queue bound to one engine of one device.
class Stream {
 public:
  explicit Stream(Device& dev, sim::Engine engine = sim::Engine::kCompute)
      : dev_(&dev), engine_(engine) {}

  Device& device() const { return *dev_; }
  sim::Engine engine() const { return engine_; }
  sim::Clock& clock() { return dev_->engine_clock(engine_); }
  const sim::Clock& clock() const {
    return const_cast<Device*>(dev_)->engine_clock(engine_);
  }

  /// cudaStreamWaitEvent: subsequent work on this stream cannot start
  /// before the event completes.
  void wait(const Event& e) { clock().sync_to(e.seconds); }

  /// cudaEventRecord: capture this stream's current position.
  Event record() const { return Event{clock().now()}; }

  /// Enqueue a kernel (compute streams only); returns the kernel timing.
  /// Equivalent to simt::launch -- the device's compute clock *is* the
  /// compute stream's queue.
  template <typename Fn>
  sim::KernelTime launch(const LaunchConfig& cfg, Fn&& body) {
    MGS_CHECK(engine_ == sim::Engine::kCompute,
              "Stream::launch on a DMA stream");
    return simt::launch(*dev_, cfg, std::forward<Fn>(body));
  }

 private:
  Device* dev_;
  sim::Engine engine_;
};

}  // namespace mgs::simt
