// The column-table MIB view against the reference map-of-closures view
// (tests/mib_reference.hpp): GET, GETNEXT and GetBulk answer identically
// from every object, from points between and around them, and for live
// octet counters and FDB ports after traffic and host moves.
#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "mib_reference.hpp"
#include "snmp/agent.hpp"

namespace remos::snmp {
namespace {

std::string render(const std::optional<VarBind>& vb) {
  return vb ? vb->oid.to_string() + " = " + to_string(vb->value) + " #" +
                  std::to_string(vb->value.index())
            : "none";
}

std::string render(const std::vector<VarBind>& vbs) {
  std::string out;
  for (const VarBind& vb : vbs) out += render(std::optional<VarBind>(vb)) + "\n";
  return out;
}

/// Probe points: every object, its neighbours between objects (truncated,
/// extended, last component moved by one), and points before the first and
/// after the last object.
std::vector<Oid> probe_points(const reference::MapMib& ref) {
  std::vector<Oid> points{Oid{}, Oid{0}, Oid{1}, Oid{1, 3}, Oid{1, 3, 6, 1, 2, 1},
                          Oid{1, 3, 6, 1, 2, 1, 99}, Oid{2}, Oid{4294967295u}};
  for (const auto& [oid, fn] : ref.objects()) {
    (void)fn;
    points.push_back(oid);
    points.push_back(oid.child(0));
    points.push_back(oid.child(4294967295u));
    std::vector<std::uint32_t> parts = oid.parts();
    parts.pop_back();
    points.emplace_back(parts);
    parts = oid.parts();
    parts.back() += 1;
    points.emplace_back(parts);
    if (oid.parts().back() > 0) {
      parts.back() -= 2;
      points.emplace_back(parts);
    }
  }
  points.push_back(ref.objects().rbegin()->first.child(7));
  return points;
}

/// Every probe point answers the same through both views.
void expect_same_answers(const MibView& view, const reference::MapMib& ref,
                         const std::string& what) {
  EXPECT_EQ(view.object_count(), ref.object_count()) << what;
  for (const Oid& p : probe_points(ref)) {
    EXPECT_EQ(render(view.get(p)), render(ref.get(p))) << what << " GET " << p.to_string();
    EXPECT_EQ(render(view.get_next(p)), render(ref.get_next(p)))
        << what << " GETNEXT " << p.to_string();
  }
  EXPECT_NO_THROW(view.audit()) << what;
}

/// Agent GetBulk (served from the column view) against the reference's
/// successive GETNEXTs, from the probe points of a few repetition counts.
void expect_same_bulk(Agent& agent, const reference::MapMib& ref, const std::string& what) {
  std::size_t i = 0;
  for (const Oid& p : probe_points(ref)) {
    const std::size_t max = 1 + (i++ % 4) * 8;  // 1, 9, 17, 25
    const BulkResponse bulk = agent.get_bulk("public", p, max);
    ASSERT_NE(bulk.status, Status::kTimeout) << what;
    EXPECT_EQ(render(bulk.vbs), render(ref.get_bulk(p, max)))
        << what << " GetBulk " << p.to_string() << " x" << max;
  }
}

struct Lan : apps::LanTestbed {
  Lan() : apps::LanTestbed(Params{.hosts = 24, .switches = 3}) {}
};

TEST(MibColumns, RouterAndSwitchesMatchReference) {
  Lan lan;
  for (net::NodeId id : {lan.router, lan.switches[0], lan.switches[1], lan.switches[2]}) {
    const std::string what = lan.net.node(id).name;
    expect_same_answers(build_device_mib(lan.net, id), reference::build_map_mib(lan.net, id),
                        what);
    expect_same_bulk(*lan.agents->find_by_node(id), reference::build_map_mib(lan.net, id), what);
  }
}

TEST(MibColumns, QuirkDevicesMatchReference) {
  Lan lan;
  const std::vector<std::pair<std::string, MibQuirks>> cases{
      {"hide_if_speed", MibQuirks{.hide_if_speed = true}},
      {"hide_route_mask", MibQuirks{.hide_route_mask = true}},
      {"force_next_hop", MibQuirks{.force_next_hop = *net::Ipv4Address::parse("10.9.9.9")}},
      {"corrupt_route_mask", MibQuirks{.corrupt_route_mask = true}},
      {"all", MibQuirks{true, true, *net::Ipv4Address::parse("10.1.2.3"), true}},
  };
  for (const auto& [name, quirks] : cases) {
    for (net::NodeId id : {lan.router, lan.switches[1]}) {
      const std::string what = name + " on " + lan.net.node(id).name;
      expect_same_answers(build_device_mib(lan.net, id, quirks),
                          reference::build_map_mib(lan.net, id, quirks), what);
      lan.agents->configure(id, quirks);
      expect_same_bulk(*lan.agents->find_by_node(id),
                       reference::build_map_mib(lan.net, id, quirks), what);
    }
  }
}

TEST(MibColumns, LiveCountersAndFdbPortsMatchReference) {
  Lan lan;
  const MibView sw_view = build_device_mib(lan.net, lan.switches[1]);
  const MibView rtr_view = build_device_mib(lan.net, lan.router);
  const reference::MapMib sw_ref = reference::build_map_mib(lan.net, lan.switches[1]);
  const reference::MapMib rtr_ref = reference::build_map_mib(lan.net, lan.router);

  // Traffic across the trunks and the router moves the octet counters.
  (void)lan.flows->start(net::FlowSpec{.src = lan.hosts[0], .dst = lan.hosts[4]});
  (void)lan.flows->start(net::FlowSpec{.src = lan.hosts[5], .dst = lan.hosts[1]});
  lan.engine.run_until(30.0);
  lan.flows->sync();
  const auto in1 = sw_view.get(oids::kIfInOctets.child(1));
  ASSERT_TRUE(in1.has_value());
  bool moved = false;
  for (const auto& [oid, fn] : sw_ref.objects()) {
    (void)fn;
    if (!oids::kIfInOctets.is_prefix_of(oid) && !oids::kIfOutOctets.is_prefix_of(oid)) continue;
    moved = moved || std::get<Counter32>(sw_view.get(oid)->value).value != 0;
  }
  EXPECT_TRUE(moved) << "traffic never reached the probed switch";
  expect_same_answers(sw_view, sw_ref, "switch after traffic");
  expect_same_answers(rtr_view, rtr_ref, "router after traffic");

  // A host move rewrites FDB ports under views built before it; a rebuilt
  // view reads the new table too.
  lan.net.move_host(lan.hosts[7], lan.switches[2], 100e6);
  expect_same_answers(sw_view, sw_ref, "switch view built before the move");
  for (net::NodeId id : lan.switches) {
    const std::string what = lan.net.node(id).name + " rebuilt after the move";
    expect_same_answers(build_device_mib(lan.net, id), reference::build_map_mib(lan.net, id),
                        what);
    expect_same_bulk(*lan.agents->find_by_node(id), reference::build_map_mib(lan.net, id), what);
  }
}

TEST(MibColumns, LaterRowsAndColumnsOverwriteEarlierOnes) {
  MibView v;
  MibView::Column c;
  c.prefix = Oid{1, 5};
  c.width = 2;
  c.rows = {3, 1, 2, 9, 3, 1};  // rows 3.1, 2.9, then 3.1 again
  c.values = {std::int64_t{10}, std::int64_t{20}, std::int64_t{30}};
  v.add_column(c);
  EXPECT_EQ(v.object_count(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(v.get(Oid{1, 5, 3, 1})->value), 30);
  EXPECT_EQ(v.get_next(Oid{1, 5})->oid.to_string(), "1.5.2.9");
  v.set_const(Oid{1, 4, 0}, std::int64_t{1});
  v.set_const(Oid{1, 4, 0}, std::int64_t{2});
  EXPECT_EQ(v.object_count(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(v.get(Oid{1, 4, 0})->value), 2);
  EXPECT_EQ(v.get_next(Oid{1, 4, 0})->oid.to_string(), "1.5.2.9");
  EXPECT_NO_THROW(v.audit());
}

}  // namespace
}  // namespace remos::snmp
