// TPC-C on DynaStar (paper §5.3).
//
// Every row is a PRObject; the location-map / workload-graph granularity is
// one vertex per warehouse (warehouse + stock rows) and one per district
// (district, customers, orders, history) — exactly the paper's modeling.
// "If a transaction requires objects from multiple districts, only those
// objects will be moved on demand, rather than the whole district."
//
// Documented deviations from the full spec (the paper's own Java harness is
// not specified at this level):
//  * Order lines are embedded in the order row (one object per order).
//  * The item catalog is read-only and treated as replicated constants.
//  * Delivery runs as ten single-district commands (one per district);
//    its reads resolve through objects co-homed with the district vertex.
//  * Stock-Level runs as two commands (order scan, then stock check), which
//    the spec explicitly allows at relaxed isolation.
//  * Table cardinalities are scaled down (configurable) so simulations fit
//    a laptop; access-skew distributions (NURand) are preserved.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/app.h"
#include "core/client.h"
#include "core/object.h"
#include "core/system.h"
#include "sim/message.h"

namespace dynastar::workloads::tpcc {

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

enum class Table : std::uint8_t {
  kWarehouse = 1,
  kDistrict,
  kCustomer,
  kStock,
  kOrder,
  kHistory,
};

/// Object id layout: [table:8][warehouse:16][district:8][number:32].
inline ObjectId oid(Table t, std::uint32_t w, std::uint32_t d,
                    std::uint32_t n) {
  return ObjectId{(static_cast<std::uint64_t>(t) << 56) |
                  (static_cast<std::uint64_t>(w) << 40) |
                  (static_cast<std::uint64_t>(d) << 32) | n};
}

/// Vertex per warehouse (stock + warehouse row).
inline core::VertexId warehouse_vertex(std::uint32_t w) {
  return core::VertexId{static_cast<std::uint64_t>(w) << 8};
}
/// Vertex per district (district, customers, orders, history). d in [1,10].
inline core::VertexId district_vertex(std::uint32_t w, std::uint32_t d) {
  return core::VertexId{(static_cast<std::uint64_t>(w) << 8) | d};
}

struct Scale {
  std::uint32_t districts_per_warehouse = 10;
  std::uint32_t customers_per_district = 60;   // spec: 3000
  std::uint32_t items = 2000;                  // spec: 100000
  /// NURand C constants (any value per spec clause 2.1.6.1).
  std::uint64_t c_customer = 123;
  std::uint64_t c_item = 987;
};

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

struct WarehouseRow final : core::PRObject {
  double ytd = 0;
  double tax = 0.08;
  core::ObjectPtr clone() const override {
    return std::make_shared<WarehouseRow>(*this);
  }
  std::size_t size_bytes() const override { return 48; }
  std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(ytd));
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(tax));
    return h;
  }
};

struct DistrictRow final : core::PRObject {
  std::uint32_t next_o_id = 1;
  std::uint32_t next_delivery_o_id = 1;
  double ytd = 0;
  double tax = 0.05;
  /// Ring of recent order ids (for Stock-Level's scan).
  std::vector<std::uint32_t> recent_orders;
  core::ObjectPtr clone() const override {
    return std::make_shared<DistrictRow>(*this);
  }
  std::size_t size_bytes() const override {
    return 64 + recent_orders.size() * 4;
  }
  std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = core::digest_mix(h, next_o_id);
    h = core::digest_mix(h, next_delivery_o_id);
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(ytd));
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(tax));
    for (std::uint32_t o : recent_orders) h = core::digest_mix(h, o);
    return h;
  }
};

struct CustomerRow final : core::PRObject {
  double balance = -10.0;
  double ytd_payment = 10.0;
  std::uint32_t payment_cnt = 1;
  std::uint32_t delivery_cnt = 0;
  core::ObjectPtr clone() const override {
    return std::make_shared<CustomerRow>(*this);
  }
  std::size_t size_bytes() const override { return 64; }
  std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(balance));
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(ytd_payment));
    h = core::digest_mix(h, payment_cnt);
    h = core::digest_mix(h, delivery_cnt);
    return h;
  }
};

struct StockRow final : core::PRObject {
  std::uint32_t quantity = 50;
  std::uint32_t ytd = 0;
  std::uint32_t order_cnt = 0;
  std::uint32_t remote_cnt = 0;
  core::ObjectPtr clone() const override {
    return std::make_shared<StockRow>(*this);
  }
  std::size_t size_bytes() const override { return 48; }
  std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = core::digest_mix(h, quantity);
    h = core::digest_mix(h, ytd);
    h = core::digest_mix(h, order_cnt);
    h = core::digest_mix(h, remote_cnt);
    return h;
  }
};

struct OrderLine {
  std::uint32_t item;
  std::uint32_t supply_w;
  std::uint32_t quantity;
  double amount;
};

struct OrderRow final : core::PRObject {
  std::uint32_t c_id = 0;
  std::uint32_t carrier = 0;  // 0 = undelivered (still a "new order")
  std::vector<OrderLine> lines;
  core::ObjectPtr clone() const override {
    return std::make_shared<OrderRow>(*this);
  }
  std::size_t size_bytes() const override { return 32 + lines.size() * 24; }
  std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = core::digest_mix(h, c_id);
    h = core::digest_mix(h, carrier);
    for (const OrderLine& l : lines) {
      h = core::digest_mix(h, l.item);
      h = core::digest_mix(h, l.supply_w);
      h = core::digest_mix(h, l.quantity);
      h = core::digest_mix(h, std::bit_cast<std::uint64_t>(l.amount));
    }
    return h;
  }
};

struct HistoryRow final : core::PRObject {
  std::uint64_t entries = 0;
  double total = 0;
  core::ObjectPtr clone() const override {
    return std::make_shared<HistoryRow>(*this);
  }
  std::size_t size_bytes() const override { return 24; }
  std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = core::digest_mix(h, entries);
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(total));
    return h;
  }
};

// ---------------------------------------------------------------------------
// Transaction payloads and reply
// ---------------------------------------------------------------------------

struct NewOrderArgs final : sim::Message {
  std::uint32_t w = 0, d = 0, c = 0;
  std::vector<OrderLine> lines;  // amount filled at execution
};

struct PaymentArgs final : sim::Message {
  std::uint32_t w = 0, d = 0;
  std::uint32_t c_w = 0, c_d = 0, c = 0;
  double amount = 0;
};

struct OrderStatusArgs final : sim::Message {
  std::uint32_t w = 0, d = 0, c = 0;
  std::uint32_t o_id = 0;  // 0 = no known order, read customer only
};

struct DeliveryArgs final : sim::Message {
  std::uint32_t w = 0, d = 0, carrier = 1;
};

struct StockScanArgs final : sim::Message {
  std::uint32_t w = 0, d = 0, last_n = 20;
};

struct StockCheckArgs final : sim::Message {
  std::uint32_t w = 0, threshold = 15;
};

struct TpccReply final : sim::Message {
  std::size_t size_bytes() const override { return 32 + items.size() * 4; }
  bool ok = true;
  std::uint32_t o_id = 0;                // NewOrder: assigned order id
  std::vector<std::uint32_t> items;      // StockScan: recent item ids
  std::uint32_t low_stock = 0;           // StockCheck
  double balance = 0;                    // OrderStatus / Payment
};

// ---------------------------------------------------------------------------
// Application state machine
// ---------------------------------------------------------------------------

class TpccApp final : public core::AppStateMachine {
 public:
  explicit TpccApp(Scale scale) : scale_(scale) {}

  core::ExecResult execute(const core::Command& cmd,
                           core::ObjectStore& store) override;
  core::ObjectPtr make_object(const core::Command& cmd) override;

 private:
  Scale scale_;
};

inline core::AppFactory tpcc_app_factory(Scale scale) {
  return [scale] { return std::make_unique<TpccApp>(scale); };
}

// ---------------------------------------------------------------------------
// Setup and client driver
// ---------------------------------------------------------------------------

enum class Placement {
  /// One warehouse (and its districts) per partition — the paper's S-SMR*
  /// manual optimum and the steady-state DynaStar solution.
  kWarehousePerPartition,
  /// Vertices scattered uniformly at random (Fig. 2's starting point).
  kRandom,
};

/// Creates all rows and installs the initial assignment.
void setup(core::System& system, const Scale& scale,
           std::uint32_t num_warehouses, Placement placement,
           std::uint64_t seed = 7);

/// Standard-mix closed-loop TPC-C terminal.
class TpccDriver final : public core::ClientDriver {
 public:
  TpccDriver(Scale scale, std::uint32_t num_warehouses, std::uint32_t home_w,
             std::uint32_t home_d);

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override;
  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override;

 private:
  core::CommandSpec make_new_order(Rng& rng);
  core::CommandSpec make_payment(Rng& rng);
  core::CommandSpec make_order_status(Rng& rng);
  void queue_delivery(Rng& rng);
  core::CommandSpec make_stock_scan(Rng& rng);

  std::uint32_t nurand_customer(Rng& rng) const;
  std::uint32_t nurand_item(Rng& rng) const;

  Scale scale_;
  std::uint32_t num_warehouses_;
  std::uint32_t home_w_;
  std::uint32_t home_d_;
  std::deque<core::CommandSpec> pending_;
  /// customer -> last order id this terminal created (for Order-Status).
  std::unordered_map<std::uint64_t, std::uint32_t> last_order_;
};

}  // namespace dynastar::workloads::tpcc
