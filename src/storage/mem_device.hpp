// In-memory device: the test double and the backing for datasets that fit in
// RAM. It owns its bytes, or borrows them (a cluster node's input slice):
// the caller then keeps them alive and unchanged while the device is in use.
// Reads are memcpy; the model reports effectively infinite bandwidth.
#pragma once

#include <string>
#include <string_view>

#include "storage/device.hpp"

namespace supmr::storage {

class MemDevice final : public Device {
 public:
  struct Borrowed {  // bytes the device reads in place
    std::string_view bytes;
  };
  explicit MemDevice(std::string data, std::string name = "mem")
      : owned_(std::move(data)), data_(owned_), name_(std::move(name)) {}
  MemDevice(Borrowed borrowed, std::string name)
      : data_(borrowed.bytes), name_(std::move(name)) {}
  // data_ may view owned_, so a copy or move would leave it dangling.
  MemDevice(const MemDevice&) = delete;
  MemDevice& operator=(const MemDevice&) = delete;

  StatusOr<std::size_t> read_at(std::uint64_t offset,
                                std::span<char> out) const override;
  std::uint64_t size() const override { return data_.size(); }
  std::string_view name() const override { return name_; }

  // The buffer is directly addressable, so MemDevice lends borrowed views
  // exactly like MmapDevice — the tests' zero-copy double (the conformance
  // harness runs its io=mmap axis over MemDevice-backed corpora).
  bool supports_views() const override { return true; }
  std::span<const char> view_at(std::uint64_t offset,
                                std::size_t length) const override {
    if (offset > data_.size() || length > data_.size() - offset) return {};
    return std::span<const char>(data_.data() + offset, length);
  }
  DeviceModel model() const override {
    return DeviceModel{.bandwidth_bps = 20.0e9, .seek_s = 0.0};
  }

  std::string_view contents() const { return data_; }

 private:
  std::string owned_;  // empty when borrowing
  std::string_view data_;
  std::string name_;
};

}  // namespace supmr::storage
