#pragma once
/// \file device.hpp
/// Simulated GPU device and device-memory buffers.
///
/// A Device owns a simulated clock and an allocation budget; DeviceBuffer<T>
/// is host memory -- owned storage or a borrowed view -- tagged with its
/// device. Kernels access buffers through GlobalView<T>, whose accessors
/// charge bytes and DRAM transactions to the running block's KernelStats --
/// this is how coalescing (int4 warp loads vs. scalar accesses) becomes
/// visible to the cost model.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mgs/sim/cost_model.hpp"
#include "mgs/sim/device_spec.hpp"
#include "mgs/sim/timeline.hpp"
#include "mgs/simt/types.hpp"
#include "mgs/util/check.hpp"
#include "mgs/util/math.hpp"

namespace mgs::sim {
class FaultInjector;
}  // namespace mgs::sim

namespace mgs::simt {

class Device;

/// Instrumented view of device memory, passable into kernels by value.
/// All accessors are warp- or lane-granular and charge the right number of
/// 32-byte DRAM transactions:
///  - load4/store4: one lane touching 16 contiguous bytes;
///  - *_warp variants: 32 lanes touching contiguous memory (fully
///    coalesced, the fast path the paper's kernels use);
///  - load/store: an isolated scalar access (a whole transaction for
///    sizeof(T) useful bytes -- e.g. each block's auxiliary-array element).
template <typename T>
class GlobalView {
 public:
  GlobalView() = default;
  GlobalView(T* data, std::int64_t size, int device_id)
      : data_(data), size_(size), device_id_(device_id) {}

  std::int64_t size() const { return size_; }
  int device_id() const { return device_id_; }

  T load(std::int64_t i, sim::KernelStats& st) const {
    bounds(i);
    st.bytes_read += sizeof(T);
    st.mem_transactions += 1;
    return data_[i];
  }

  void store(std::int64_t i, T v, sim::KernelStats& st) const {
    bounds(i);
    st.bytes_written += sizeof(T);
    st.mem_transactions += 1;
    data_[i] = v;
  }

  /// One lane reads a 16-byte vector (CUDA int4 load).
  Vec4<T> load4(std::int64_t i, sim::KernelStats& st) const {
    bounds(i + 3);
    st.bytes_read += 4 * sizeof(T);
    st.mem_transactions += txn_count(4 * sizeof(T));
    return Vec4<T>{data_[i], data_[i + 1], data_[i + 2], data_[i + 3]};
  }

  void store4(std::int64_t i, const Vec4<T>& v, sim::KernelStats& st) const {
    bounds(i + 3);
    st.bytes_written += 4 * sizeof(T);
    st.mem_transactions += txn_count(4 * sizeof(T));
    data_[i] = v.x;
    data_[i + 1] = v.y;
    data_[i + 2] = v.z;
    data_[i + 3] = v.w;
  }

  /// A full warp reads 32 contiguous scalars starting at i0 (coalesced).
  WarpReg<T> load_warp(std::int64_t i0, sim::KernelStats& st) const {
    bounds(i0 + kWarpSize - 1);
    st.bytes_read += kWarpSize * sizeof(T);
    st.mem_transactions += txn_count(kWarpSize * sizeof(T));
    WarpReg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = data_[i0 + l];
    return r;
  }

  void store_warp(std::int64_t i0, const WarpReg<T>& r,
                  sim::KernelStats& st) const {
    bounds(i0 + kWarpSize - 1);
    st.bytes_written += kWarpSize * sizeof(T);
    st.mem_transactions += txn_count(kWarpSize * sizeof(T));
    for (int l = 0; l < kWarpSize; ++l) data_[i0 + l] = r[l];
  }

  /// A full warp reads 32 contiguous Vec4 (lane l gets elements
  /// i0 + 4*l .. i0 + 4*l + 3): 512 contiguous bytes, the paper's preferred
  /// access pattern ("each thread reads P elements ... using int4").
  WarpReg<Vec4<T>> load4_warp(std::int64_t i0, sim::KernelStats& st) const {
    bounds(i0 + 4 * kWarpSize - 1);
    st.bytes_read += 4 * kWarpSize * sizeof(T);
    st.mem_transactions += txn_count(4 * kWarpSize * sizeof(T));
    WarpReg<Vec4<T>> r;
    for (int l = 0; l < kWarpSize; ++l) {
      const std::int64_t base = i0 + 4 * static_cast<std::int64_t>(l);
      r[l] = Vec4<T>{data_[base], data_[base + 1], data_[base + 2],
                     data_[base + 3]};
    }
    return r;
  }

  void store4_warp(std::int64_t i0, const WarpReg<Vec4<T>>& r,
                   sim::KernelStats& st) const {
    bounds(i0 + 4 * kWarpSize - 1);
    st.bytes_written += 4 * kWarpSize * sizeof(T);
    st.mem_transactions += txn_count(4 * kWarpSize * sizeof(T));
    for (int l = 0; l < kWarpSize; ++l) {
      const std::int64_t base = i0 + 4 * static_cast<std::int64_t>(l);
      data_[base] = r[l].x;
      data_[base + 1] = r[l].y;
      data_[base + 2] = r[l].z;
      data_[base + 3] = r[l].w;
    }
  }

  /// Partial warp load: lanes [0, n) read contiguous scalars, remaining
  /// lanes receive `fill` (predicated tail handling for non-power-of-two N).
  WarpReg<T> load_warp_partial(std::int64_t i0, int n, T fill,
                               sim::KernelStats& st) const {
    MGS_CHECK(n >= 0 && n <= kWarpSize, "load_warp_partial: bad lane count");
    if (n > 0) bounds(i0 + n - 1);
    st.bytes_read += static_cast<std::uint64_t>(n) * sizeof(T);
    st.mem_transactions += txn_count(static_cast<std::uint64_t>(n) * sizeof(T));
    WarpReg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = (l < n) ? data_[i0 + l] : fill;
    return r;
  }

  void store_warp_partial(std::int64_t i0, int n, const WarpReg<T>& r,
                          sim::KernelStats& st) const {
    MGS_CHECK(n >= 0 && n <= kWarpSize, "store_warp_partial: bad lane count");
    if (n > 0) bounds(i0 + n - 1);
    st.bytes_written += static_cast<std::uint64_t>(n) * sizeof(T);
    st.mem_transactions += txn_count(static_cast<std::uint64_t>(n) * sizeof(T));
    for (int l = 0; l < n; ++l) data_[i0 + l] = r[l];
  }

  /// Raw access to [i0, i0+n) for a warp-cooperative body that charges
  /// its traffic itself in closed form; the range is checked once here
  /// instead of per element.
  T* range(std::int64_t i0, std::int64_t n) const {
    if (n > 0) {
      bounds(i0);
      bounds(i0 + n - 1);
    }
    return data_ + i0;
  }

  /// Atomic compare-and-set / load with device-memory cost accounting;
  /// used by the decoupled-look-back and chained-scan baselines.
  T atomic_load(std::int64_t i, sim::KernelStats& st) const {
    bounds(i);
    st.bytes_read += sizeof(T);
    st.mem_transactions += 1;
    return std::atomic_ref<T>(data_[i]).load(std::memory_order_acquire);
  }

  void atomic_store(std::int64_t i, T v, sim::KernelStats& st) const {
    bounds(i);
    st.bytes_written += sizeof(T);
    st.mem_transactions += 1;
    std::atomic_ref<T>(data_[i]).store(v, std::memory_order_release);
  }

  /// Uncharged atomic read, for spin-polling loops whose *modeled* cost is
  /// charged as a fixed constant (the host-side poll count depends on
  /// worker scheduling and would make modeled times nondeterministic).
  T atomic_peek(std::int64_t i) const {
    bounds(i);
    return std::atomic_ref<T>(data_[i]).load(std::memory_order_acquire);
  }

  T atomic_add(std::int64_t i, T v, sim::KernelStats& st) const {
    bounds(i);
    st.bytes_read += sizeof(T);
    st.bytes_written += sizeof(T);
    st.mem_transactions += 2;
    return std::atomic_ref<T>(data_[i]).fetch_add(v, std::memory_order_acq_rel);
  }

 private:
  void bounds(std::int64_t i) const {
    MGS_CHECK(i >= 0 && i < size_, "GlobalView access out of bounds");
  }
  std::uint64_t txn_count(std::uint64_t bytes) const {
    return util::div_up(bytes, 32);
  }

  T* data_ = nullptr;
  std::int64_t size_ = 0;
  int device_id_ = -1;
};

/// Device memory handle, passable like a CUDA device pointer. Either
/// owned -- host-backed storage allocated by Device::alloc, shared by every
/// copy of the handle -- or borrowed: a view of memory someone else owns,
/// tagged with the device it models (the caller's problem rows, which the
/// paper's evaluation takes as already GPU-resident). A borrowed buffer
/// charges no budget and must not outlive the memory it views.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  /// View `host` as resident on device `device_id`, without a copy.
  static DeviceBuffer borrow(std::span<T> host, int device_id) {
    DeviceBuffer b;
    b.data_ = host.data();
    b.size_ = static_cast<std::int64_t>(host.size());
    b.device_id_ = device_id;
    return b;
  }

  std::int64_t size() const { return size_; }
  int device_id() const { return device_id_; }
  bool valid() const { return storage_ != nullptr || data_ != nullptr; }

  GlobalView<T> view() const {
    MGS_CHECK(valid(), "view() on empty DeviceBuffer");
    return GlobalView<T>(data_, size_, device_id_);
  }

  /// Direct host access for initialization, verification and transfers.
  /// (Corresponds to cudaMemcpy-to/from-host in a real system; the topo
  /// layer charges transfer costs where it matters.)
  std::span<T> host_span() {
    MGS_CHECK(valid(), "host_span() on empty DeviceBuffer");
    return {data_, static_cast<std::size_t>(size_)};
  }
  std::span<const T> host_span() const {
    MGS_CHECK(valid(), "host_span() on empty DeviceBuffer");
    return {data_, static_cast<std::size_t>(size_)};
  }

 private:
  friend class Device;
  DeviceBuffer(std::shared_ptr<std::vector<T>> storage, int device_id)
      : storage_(std::move(storage)),
        data_(storage_->data()),
        size_(static_cast<std::int64_t>(storage_->size())),
        device_id_(device_id) {}

  std::shared_ptr<std::vector<T>> storage_;  ///< null when borrowed
  T* data_ = nullptr;
  std::int64_t size_ = 0;
  int device_id_ = -1;
};

/// One simulated GPU: spec + per-engine clocks + allocation tracking.
/// clock() is the compute (SM) engine; dma_clock() is the copy engine that
/// async transfers serialize on, so a copy and a kernel on the same device
/// can overlap in modeled time.
class Device {
 public:
  Device(int id, sim::DeviceSpec spec);

  int id() const { return id_; }
  const sim::DeviceSpec& spec() const { return spec_; }
  sim::Clock& clock() { return clock_; }
  const sim::Clock& clock() const { return clock_; }
  sim::Clock& dma_clock() { return dma_clock_; }
  const sim::Clock& dma_clock() const { return dma_clock_; }
  sim::Clock& engine_clock(sim::Engine e) {
    return e == sim::Engine::kDma ? dma_clock_ : clock_;
  }
  std::int64_t allocated_bytes() const { return allocated_bytes_; }

  /// Borrowed fault injector (set by Cluster::set_fault_injector so
  /// simt::launch can model compute stragglers); nullptr keeps kernel
  /// timing bit-identical to the pre-fault path.
  void set_fault_injector(const sim::FaultInjector* faults) {
    faults_ = faults;
  }
  const sim::FaultInjector* fault_injector() const { return faults_; }

  /// Allocate n elements of device memory; throws util::Error when the
  /// device's memory capacity would be exceeded (this is the condition
  /// that forces multi-GPU scattering for large N -- the paper's Case 2).
  /// Allocation accounting is RAII: the budget returns when the last
  /// DeviceBuffer handle drops. The Device must outlive its buffers.
  template <typename T>
  DeviceBuffer<T> alloc(std::int64_t n) {
    MGS_REQUIRE(n >= 0, "Device::alloc: negative size");
    const std::int64_t bytes = n * static_cast<std::int64_t>(sizeof(T));
    register_alloc(bytes);
    std::shared_ptr<std::vector<T>> storage(
        new std::vector<T>(static_cast<std::size_t>(n)),
        [this, bytes](std::vector<T>* p) {
          release_bytes(bytes);
          delete p;
        });
    return DeviceBuffer<T>(std::move(storage), id_);
  }

  /// Count `bytes` against the budget with no storage behind them -- what
  /// borrowed buffers occupy on the device they model. The bytes return
  /// when the last copy of the handle drops; throws util::Error exactly
  /// where alloc of as many bytes would.
  std::shared_ptr<void> reserve(std::int64_t bytes) {
    MGS_REQUIRE(bytes >= 0, "Device::reserve: negative size");
    register_alloc(bytes);
    return std::shared_ptr<void>(
        nullptr, [this, bytes](void*) { release_bytes(bytes); });
  }

  /// Release accounting for a buffer about to be dropped. (Storage itself
  /// is shared_ptr-managed; this only returns budget.)
  void release_bytes(std::int64_t bytes);

 private:
  void register_alloc(std::int64_t bytes);

  int id_;
  sim::DeviceSpec spec_;
  sim::Clock clock_;      // compute (SM) engine
  sim::Clock dma_clock_;  // copy (DMA) engine
  std::int64_t allocated_bytes_ = 0;
  const sim::FaultInjector* faults_ = nullptr;
};

}  // namespace mgs::simt
