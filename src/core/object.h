// PRObject and ObjectStore: the replicated data items a partition holds.
//
// PRObject is the paper's common interface for replicated data items
// (§5.2). The store holds each object as an immutable, reference-counted
// version: a borrow, a return, a lease grant, a STAR update and a checkpoint
// all share the stored pointer, and a write clones the version first if
// anyone else holds it (copy-on-write, ObjectStore::get_mut). The store
// indexes objects by id and by home vertex so partitioning plans can
// relocate a whole vertex at once.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "core/types.h"

namespace dynastar::core {

/// Base class for replicated application data items.
class PRObject {
 public:
  virtual ~PRObject() = default;

  /// Deep copy; ObjectStore::get_mut calls it to write a version that is
  /// shared (with a checkpoint, an in-flight envelope or another replica).
  /// Implement it as one std::make_shared<Derived>(*this): object and
  /// reference count in a single allocation.
  [[nodiscard]] virtual std::shared_ptr<const PRObject> clone() const = 0;

  /// Approximate serialized size, for network cost accounting.
  [[nodiscard]] virtual std::size_t size_bytes() const { return 64; }

  /// Content hash over every semantic field; two objects with equal state
  /// must digest equally, and any mutation must change the digest. Used by
  /// the workload write-set audit (a declared read-only command must leave
  /// every digest unchanged). 0 = not implemented — audits self-validate by
  /// also requiring that writes DO move the digest, so an unimplemented
  /// digest fails loudly rather than vacuously passing.
  [[nodiscard]] virtual std::uint64_t digest() const { return 0; }
};

/// FNV-1a fold helper for digest() implementations.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One immutable version of an object. Versions are shared freely; only
/// ObjectStore::get_mut writes one, and only while the store holds the sole
/// reference.
using ObjectPtr = std::shared_ptr<const PRObject>;

/// A partition replica's local object storage with a vertex index.
///
/// Both indexes are flat: objects move in and out on every borrow/return,
/// so node-based maps would allocate per move. A vertex keeps its id vector
/// (and its capacity) while its objects are lent out; objects_of_vertex
/// lists ids in insertion order.
///
/// Reads go through find(), writes through get_mut(), which clones a
/// version only when it is shared (use_count() > 1) and is the one place
/// that turns a stored version writable. No version is ever written while
/// shared, so a copy of the store (a checkpoint, or a restore from one)
/// shares every object with its source and still never observes a later
/// write on either side.
///
/// Single-threaded: every command, batched or not, executes on the sim
/// thread in slot order.
class ObjectStore {
 public:
  ObjectStore() = default;

  /// Copies share every version with the source (see above).
  ObjectStore(const ObjectStore&) = default;
  ObjectStore& operator=(const ObjectStore&) = default;
  ObjectStore(ObjectStore&&) = default;
  ObjectStore& operator=(ObjectStore&&) = default;

  /// Inserts or replaces an object. The vertex is the object's home vertex.
  void put(ObjectId id, VertexId vertex, ObjectPtr object) {
    auto [it, inserted] = objects_.try_emplace(id, Entry{vertex, nullptr});
    Entry& entry = it->second;
    entry.object = std::move(object);
    if (inserted) {
      by_vertex_[vertex].push_back(id);
    } else if (entry.vertex != vertex) {
      unindex(entry.vertex, id);
      by_vertex_[vertex].push_back(id);
      entry.vertex = vertex;
    }
  }

  [[nodiscard]] bool contains(ObjectId id) const {
    return objects_.contains(id);
  }

  /// Read access; nullptr when absent.
  [[nodiscard]] const PRObject* find(ObjectId id) const {
    auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : it->second.object.get();
  }

  /// Write access for command execution; nullptr when absent. Clones the
  /// version first when anyone else holds it, so the pointer returned is
  /// the store's own until the store is next copied or the object shipped.
  [[nodiscard]] PRObject* get_mut(ObjectId id) {
    auto it = objects_.find(id);
    if (it == objects_.end() || !it->second.object) return nullptr;
    ObjectPtr& object = it->second.object;
    if (object.use_count() > 1) object = object->clone();
    // Sole owner: every version is created writable (make_shared<T> or
    // clone()) and only shared as const, so dropping const here is sound.
    return const_cast<PRObject*>(object.get());
  }

  /// The stored version itself (nullptr when absent), for shipping it
  /// without a copy.
  [[nodiscard]] ObjectPtr share(ObjectId id) const {
    auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : it->second.object;
  }

  [[nodiscard]] VertexId vertex_of(ObjectId id) const {
    auto it = objects_.find(id);
    return it == objects_.end() ? VertexId{UINT64_MAX} : it->second.vertex;
  }

  /// Removes and returns the object (nullptr if absent).
  ObjectPtr take(ObjectId id) {
    auto it = objects_.find(id);
    if (it == objects_.end()) return nullptr;
    ObjectPtr obj = std::move(it->second.object);
    unindex(it->second.vertex, id);
    objects_.erase(it);
    return obj;
  }

  /// All object ids homed at `vertex`, in insertion order. A copy, for
  /// callers that read or share the objects; to remove them all, use
  /// drain_vertex or erase_vertex, which copy nothing.
  [[nodiscard]] std::vector<ObjectId> objects_of_vertex(VertexId vertex) const {
    auto it = by_vertex_.find(vertex);
    if (it == by_vertex_.end()) return {};
    return it->second;
  }

  /// Removes every object homed at `vertex` and calls fn(id, object) for
  /// each, in objects_of_vertex order (object may be null). The vertex
  /// keeps its empty id list, and that list its capacity, for the
  /// objects' return.
  template <typename Fn>
  void drain_vertex(VertexId vertex, Fn&& fn) {
    auto it = by_vertex_.find(vertex);
    if (it == by_vertex_.end()) return;
    for (ObjectId id : it->second) {
      auto entry = objects_.find(id);
      assert(entry != objects_.end() && "vertex index names a missing object");
      fn(id, std::move(entry->second.object));
      objects_.erase(entry);
    }
    it->second.clear();
  }

  /// Removes every object homed at `vertex`.
  void erase_vertex(VertexId vertex) {
    drain_vertex(vertex, [](ObjectId, ObjectPtr) {});
  }

  [[nodiscard]] std::size_t size() const { return objects_.size(); }

  /// Approximate serialized size of the whole store, for snapshot-transfer
  /// network cost accounting.
  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t total = 0;
    for (const auto& [id, entry] : objects_)
      total += 16 + (entry.object ? entry.object->size_bytes() : 0);
    return total;
  }

 private:
  /// Drops `id` from its vertex's id list (order of the rest is kept).
  void unindex(VertexId vertex, ObjectId id) {
    auto it = by_vertex_.find(vertex);
    if (it == by_vertex_.end()) return;
    auto& ids = it->second;
    auto pos = std::find(ids.begin(), ids.end(), id);
    if (pos != ids.end()) ids.erase(pos);
  }

  struct Entry {
    VertexId vertex;
    ObjectPtr object;
  };
  common::FlatMap<ObjectId, Entry> objects_;
  common::FlatMap<VertexId, std::vector<ObjectId>> by_vertex_;
};

}  // namespace dynastar::core
