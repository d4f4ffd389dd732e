#include "workloads/tpcc.h"

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"

namespace dynastar::workloads::tpcc {

namespace {

/// Item price is a pure function of the item id (read-only catalog).
double item_price(std::uint32_t item) {
  return 1.0 + static_cast<double>((item * 2654435761u) % 9900) / 100.0;
}

/// Rows are read through row() and written through row_mut(), which goes
/// through ObjectStore::get_mut (copy-on-write); read-only transactions use
/// row() only.
template <typename T>
const T* row(const core::ObjectStore& store, ObjectId id) {
  return dynamic_cast<const T*>(store.find(id));
}

template <typename T>
T* row_mut(core::ObjectStore& store, ObjectId id) {
  return dynamic_cast<T*>(store.get_mut(id));
}

}  // namespace

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

core::ExecResult TpccApp::execute(const core::Command& cmd,
                                  core::ObjectStore& store) {
  auto reply = sim::make_mutable_message<TpccReply>();
  SimTime cost = microseconds(10);

  if (auto* args = dynamic_cast<const NewOrderArgs*>(cmd.payload.get())) {
    const auto* warehouse =
        row<WarehouseRow>(store, oid(Table::kWarehouse, args->w, 0, 0));
    auto* district =
        row_mut<DistrictRow>(store, oid(Table::kDistrict, args->w, args->d, 0));
    const auto* customer = row<CustomerRow>(
        store, oid(Table::kCustomer, args->w, args->d, args->c));
    if (warehouse == nullptr || district == nullptr || customer == nullptr) {
      reply->ok = false;
      return {reply, cost};
    }
    const std::uint32_t o_id = district->next_o_id++;
    auto order = std::make_unique<OrderRow>();
    order->c_id = args->c;
    double total = 0;
    for (const OrderLine& line : args->lines) {
      auto* stock = row_mut<StockRow>(
          store, oid(Table::kStock, line.supply_w, 0, line.item));
      if (stock != nullptr) {
        if (stock->quantity >= line.quantity + 10) {
          stock->quantity -= line.quantity;
        } else {
          stock->quantity = stock->quantity + 91 - line.quantity;
        }
        stock->ytd += line.quantity;
        stock->order_cnt += 1;
        if (line.supply_w != args->w) stock->remote_cnt += 1;
      }
      OrderLine filled = line;
      filled.amount = static_cast<double>(line.quantity) *
                      item_price(line.item) * (1.0 + warehouse->tax) *
                      (1.0 + district->tax);
      total += filled.amount;
      order->lines.push_back(filled);
    }
    district->recent_orders.push_back(o_id);
    if (district->recent_orders.size() > 32)
      district->recent_orders.erase(district->recent_orders.begin());
    store.put(oid(Table::kOrder, args->w, args->d, o_id),
              district_vertex(args->w, args->d), std::move(order));
    reply->o_id = o_id;
    reply->balance = total;
    cost = microseconds(25) + microseconds(2) * args->lines.size();
    return {reply, cost};
  }

  if (auto* args = dynamic_cast<const PaymentArgs*>(cmd.payload.get())) {
    auto* warehouse =
        row_mut<WarehouseRow>(store, oid(Table::kWarehouse, args->w, 0, 0));
    auto* district =
        row_mut<DistrictRow>(store, oid(Table::kDistrict, args->w, args->d, 0));
    auto* customer = row_mut<CustomerRow>(
        store, oid(Table::kCustomer, args->c_w, args->c_d, args->c));
    auto* history =
        row_mut<HistoryRow>(store, oid(Table::kHistory, args->w, args->d, 0));
    if (warehouse == nullptr || district == nullptr || customer == nullptr) {
      reply->ok = false;
      return {reply, cost};
    }
    warehouse->ytd += args->amount;
    district->ytd += args->amount;
    customer->balance -= args->amount;
    customer->ytd_payment += args->amount;
    customer->payment_cnt += 1;
    if (history != nullptr) {
      history->entries += 1;
      history->total += args->amount;
    }
    reply->balance = customer->balance;
    return {reply, microseconds(15)};
  }

  if (auto* args = dynamic_cast<const OrderStatusArgs*>(cmd.payload.get())) {
    const auto* customer = row<CustomerRow>(
        store, oid(Table::kCustomer, args->w, args->d, args->c));
    if (customer == nullptr) {
      reply->ok = false;
      return {reply, cost};
    }
    reply->balance = customer->balance;
    if (args->o_id != 0) {
      const auto* order =
          row<OrderRow>(store, oid(Table::kOrder, args->w, args->d, args->o_id));
      if (order != nullptr) reply->o_id = args->o_id;
    }
    return {reply, microseconds(8)};
  }

  if (auto* args = dynamic_cast<const DeliveryArgs*>(cmd.payload.get())) {
    // Oldest undelivered order of this district; all rows are co-homed with
    // the district vertex, so they are local at the executing partition.
    auto* district =
        row_mut<DistrictRow>(store, oid(Table::kDistrict, args->w, args->d, 0));
    if (district == nullptr) {
      reply->ok = false;
      return {reply, cost};
    }
    while (district->next_delivery_o_id < district->next_o_id) {
      const std::uint32_t o_id = district->next_delivery_o_id;
      const ObjectId order_id = oid(Table::kOrder, args->w, args->d, o_id);
      const auto* order = row<OrderRow>(store, order_id);
      if (order == nullptr) {
        // Created under a borrowed vertex and not yet visible here — this
        // cannot happen thanks to head-of-line blocking; skip defensively.
        district->next_delivery_o_id += 1;
        continue;
      }
      if (order->carrier != 0) {
        district->next_delivery_o_id += 1;
        continue;
      }
      auto* delivered = row_mut<OrderRow>(store, order_id);
      delivered->carrier = args->carrier;
      double total = 0;
      for (const OrderLine& line : delivered->lines) total += line.amount;
      auto* customer = row_mut<CustomerRow>(
          store, oid(Table::kCustomer, args->w, args->d, delivered->c_id));
      if (customer != nullptr) {
        customer->balance += total;
        customer->delivery_cnt += 1;
      }
      district->next_delivery_o_id += 1;
      reply->o_id = o_id;
      break;
    }
    return {reply, microseconds(20)};
  }

  if (auto* args = dynamic_cast<const StockScanArgs*>(cmd.payload.get())) {
    const auto* district =
        row<DistrictRow>(store, oid(Table::kDistrict, args->w, args->d, 0));
    if (district == nullptr) {
      reply->ok = false;
      return {reply, cost};
    }
    std::size_t start = district->recent_orders.size() > args->last_n
                            ? district->recent_orders.size() - args->last_n
                            : 0;
    for (std::size_t i = start; i < district->recent_orders.size(); ++i) {
      const auto* order = row<OrderRow>(
          store,
          oid(Table::kOrder, args->w, args->d, district->recent_orders[i]));
      if (order == nullptr) continue;
      for (const OrderLine& line : order->lines) reply->items.push_back(line.item);
    }
    std::sort(reply->items.begin(), reply->items.end());
    reply->items.erase(std::unique(reply->items.begin(), reply->items.end()),
                       reply->items.end());
    return {reply, microseconds(15)};
  }

  if (auto* args = dynamic_cast<const StockCheckArgs*>(cmd.payload.get())) {
    std::uint32_t low = 0;
    for (std::size_t i = 0; i < cmd.objects.size(); ++i) {
      const auto* stock = row<StockRow>(store, cmd.objects[i]);
      if (stock != nullptr && stock->quantity < args->threshold) ++low;
    }
    reply->low_stock = low;
    return {reply, microseconds(5) +
                       microseconds(1) * static_cast<SimTime>(cmd.objects.size())};
  }

  reply->ok = false;
  return {reply, cost};
}

core::ObjectPtr TpccApp::make_object(const core::Command& /*cmd*/) {
  // TPC-C never issues client-level create(v) commands (all vertices are
  // preloaded); rows created inside transactions go through store.put.
  return std::make_shared<HistoryRow>();
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

void setup(core::System& system, const Scale& scale,
           std::uint32_t num_warehouses, Placement placement,
           std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t k = system.config().num_partitions;
  core::Assignment assignment;

  auto place = [&](core::VertexId v, std::uint32_t w) {
    PartitionId p = placement == Placement::kWarehousePerPartition
                        ? PartitionId{(w - 1) % k}
                        : PartitionId{rng.uniform(0, k - 1)};
    assignment[v] = p;
    return p;
  };

  // Every stock row and every customer row starts as one shared version;
  // the first write to a row clones it (ObjectStore::get_mut).
  const core::ObjectPtr stock = std::make_shared<StockRow>();
  const core::ObjectPtr customer = std::make_shared<CustomerRow>();
  for (std::uint32_t w = 1; w <= num_warehouses; ++w) {
    const PartitionId wp = place(warehouse_vertex(w), w);
    system.preload_object(oid(Table::kWarehouse, w, 0, 0), warehouse_vertex(w),
                          wp, WarehouseRow{});
    for (std::uint32_t i = 1; i <= scale.items; ++i) {
      system.preload_object(oid(Table::kStock, w, 0, i), warehouse_vertex(w),
                            wp, stock);
    }
    for (std::uint32_t d = 1; d <= scale.districts_per_warehouse; ++d) {
      const PartitionId dp = place(district_vertex(w, d), w);
      system.preload_object(oid(Table::kDistrict, w, d, 0),
                            district_vertex(w, d), dp, DistrictRow{});
      system.preload_object(oid(Table::kHistory, w, d, 0),
                            district_vertex(w, d), dp, HistoryRow{});
      for (std::uint32_t c = 1; c <= scale.customers_per_district; ++c) {
        system.preload_object(oid(Table::kCustomer, w, d, c),
                              district_vertex(w, d), dp, customer);
      }
    }
  }
  system.preload_assignment(assignment);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

TpccDriver::TpccDriver(Scale scale, std::uint32_t num_warehouses,
                       std::uint32_t home_w, std::uint32_t home_d)
    : scale_(scale),
      num_warehouses_(num_warehouses),
      home_w_(home_w),
      home_d_(home_d) {}

std::uint32_t TpccDriver::nurand_customer(Rng& rng) const {
  NuRand nu(255, 1, scale_.customers_per_district, scale_.c_customer);
  return static_cast<std::uint32_t>(nu.next(rng));
}

std::uint32_t TpccDriver::nurand_item(Rng& rng) const {
  NuRand nu(1023, 1, scale_.items, scale_.c_item);
  return static_cast<std::uint32_t>(nu.next(rng));
}

core::CommandSpec TpccDriver::make_new_order(Rng& rng) {
  auto args = sim::make_mutable_message<NewOrderArgs>();
  args->w = home_w_;
  args->d = home_d_;
  args->c = nurand_customer(rng);

  core::CommandSpec spec;
  spec.objects.emplace_back(oid(Table::kWarehouse, args->w, 0, 0),
                            warehouse_vertex(args->w));
  spec.objects.emplace_back(oid(Table::kDistrict, args->w, args->d, 0),
                            district_vertex(args->w, args->d));
  spec.objects.emplace_back(oid(Table::kCustomer, args->w, args->d, args->c),
                            district_vertex(args->w, args->d));

  const std::uint64_t num_lines = rng.uniform(5, 15);
  for (std::uint64_t l = 0; l < num_lines; ++l) {
    OrderLine line;
    line.item = nurand_item(rng);
    line.quantity = static_cast<std::uint32_t>(rng.uniform(1, 10));
    line.supply_w = home_w_;
    if (num_warehouses_ > 1 && rng.chance(0.01)) {
      do {
        line.supply_w =
            static_cast<std::uint32_t>(rng.uniform(1, num_warehouses_));
      } while (line.supply_w == home_w_);
    }
    line.amount = 0;
    spec.objects.emplace_back(oid(Table::kStock, line.supply_w, 0, line.item),
                              warehouse_vertex(line.supply_w));
    args->lines.push_back(line);
  }
  spec.payload = std::move(args);
  return spec;
}

core::CommandSpec TpccDriver::make_payment(Rng& rng) {
  auto args = sim::make_mutable_message<PaymentArgs>();
  args->w = home_w_;
  args->d = home_d_;
  args->amount = 1.0 + rng.uniform01() * 4999.0;
  if (num_warehouses_ > 1 && rng.chance(0.15)) {
    do {
      args->c_w = static_cast<std::uint32_t>(rng.uniform(1, num_warehouses_));
    } while (args->c_w == home_w_);
    args->c_d = static_cast<std::uint32_t>(
        rng.uniform(1, scale_.districts_per_warehouse));
  } else {
    args->c_w = home_w_;
    args->c_d = home_d_;
  }
  args->c = nurand_customer(rng);

  core::CommandSpec spec;
  spec.objects.emplace_back(oid(Table::kWarehouse, args->w, 0, 0),
                            warehouse_vertex(args->w));
  spec.objects.emplace_back(oid(Table::kDistrict, args->w, args->d, 0),
                            district_vertex(args->w, args->d));
  spec.objects.emplace_back(oid(Table::kHistory, args->w, args->d, 0),
                            district_vertex(args->w, args->d));
  spec.objects.emplace_back(oid(Table::kCustomer, args->c_w, args->c_d, args->c),
                            district_vertex(args->c_w, args->c_d));
  spec.payload = std::move(args);
  return spec;
}

core::CommandSpec TpccDriver::make_order_status(Rng& rng) {
  auto args = sim::make_mutable_message<OrderStatusArgs>();
  args->w = home_w_;
  args->d = home_d_;
  args->c = nurand_customer(rng);
  const std::uint64_t ckey =
      (static_cast<std::uint64_t>(args->w) << 40) |
      (static_cast<std::uint64_t>(args->d) << 32) | args->c;
  auto it = last_order_.find(ckey);
  args->o_id = it == last_order_.end() ? 0 : it->second;

  core::CommandSpec spec;
  spec.objects.emplace_back(oid(Table::kCustomer, args->w, args->d, args->c),
                            district_vertex(args->w, args->d));
  if (args->o_id != 0) {
    spec.objects.emplace_back(oid(Table::kOrder, args->w, args->d, args->o_id),
                              district_vertex(args->w, args->d));
  }
  spec.read_only = true;
  spec.payload = std::move(args);
  return spec;
}

void TpccDriver::queue_delivery(Rng& rng) {
  const auto carrier = static_cast<std::uint32_t>(rng.uniform(1, 10));
  for (std::uint32_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
    auto args = sim::make_mutable_message<DeliveryArgs>();
    args->w = home_w_;
    args->d = d;
    args->carrier = carrier;
    core::CommandSpec spec;
    spec.objects.emplace_back(oid(Table::kDistrict, home_w_, d, 0),
                              district_vertex(home_w_, d));
    spec.payload = std::move(args);
    pending_.push_back(std::move(spec));
  }
}

core::CommandSpec TpccDriver::make_stock_scan(Rng& rng) {
  auto args = sim::make_mutable_message<StockScanArgs>();
  args->w = home_w_;
  args->d = home_d_;
  args->last_n = 20;
  (void)rng;
  core::CommandSpec spec;
  spec.objects.emplace_back(oid(Table::kDistrict, home_w_, home_d_, 0),
                            district_vertex(home_w_, home_d_));
  spec.read_only = true;
  spec.payload = std::move(args);
  return spec;
}

std::optional<core::CommandSpec> TpccDriver::next(Rng& rng, SimTime /*now*/) {
  if (!pending_.empty()) {
    auto spec = std::move(pending_.front());
    pending_.pop_front();
    return spec;
  }
  const double roll = rng.uniform01();
  if (roll < 0.45) return make_new_order(rng);
  if (roll < 0.88) return make_payment(rng);
  if (roll < 0.92) return make_order_status(rng);
  if (roll < 0.96) {
    queue_delivery(rng);
    auto spec = std::move(pending_.front());
    pending_.pop_front();
    return spec;
  }
  return make_stock_scan(rng);
}

void TpccDriver::on_result(const core::CommandSpec& spec,
                           core::ReplyStatus status,
                           const sim::MessagePtr& payload,
                           SimTime /*issued_at*/, SimTime /*completed_at*/) {
  if (status != core::ReplyStatus::kOk) return;
  const auto* reply = dynamic_cast<const TpccReply*>(payload.get());
  if (reply == nullptr) return;

  if (auto* args = dynamic_cast<const NewOrderArgs*>(spec.payload.get())) {
    const std::uint64_t ckey =
        (static_cast<std::uint64_t>(args->w) << 40) |
        (static_cast<std::uint64_t>(args->d) << 32) | args->c;
    if (reply->o_id != 0) last_order_[ckey] = reply->o_id;
    return;
  }
  if (dynamic_cast<const StockScanArgs*>(spec.payload.get()) != nullptr &&
      !reply->items.empty()) {
    // Phase 2: check the stock of the scanned items at the home warehouse.
    auto args = sim::make_mutable_message<StockCheckArgs>();
    args->w = home_w_;
    core::CommandSpec spec2;
    for (std::uint32_t item : reply->items) {
      spec2.objects.emplace_back(oid(Table::kStock, home_w_, 0, item),
                                 warehouse_vertex(home_w_));
    }
    spec2.payload = std::move(args);
    pending_.push_back(std::move(spec2));
  }
}

}  // namespace dynastar::workloads::tpcc
