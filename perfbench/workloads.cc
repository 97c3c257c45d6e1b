#include "workloads.h"

#include <string>

namespace perfbench {

namespace {

std::string list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

// Table 1, one protocol pair: queues {15, 20} x six start delays of the
// small transfer, seed = 1000 + queue*10 + delay*2 (table1.scn).
ScenarioText table1(const std::string& large, const std::string& small,
                    std::uint64_t offset, bool smoke) {
  const std::vector<int> queues = smoke ? std::vector<int>{15}
                                        : std::vector<int>{15, 20};
  const std::vector<std::string> delays =
      smoke ? std::vector<std::string>{"0.0", "0.5"}
            : std::vector<std::string>{"0.0", "0.5", "1.0",
                                       "1.5", "2.0", "2.5"};
  std::vector<std::string> qs;
  std::vector<std::string> seeds;
  for (const int q : queues) {
    qs.push_back(std::to_string(q));
    for (std::size_t d = 0; d < delays.size(); ++d) {
      seeds.push_back(std::to_string(1000 + q * 10 + d + offset));
    }
  }
  ScenarioText s;
  s.name = large == "vegas" && small == "vegas"
               ? "table1-one-on-one"
               : "table1-" + large + "-" + small;
  s.text = "[scenario]\nname = " + quoted(s.name) +
           "\nstop = \"timeout\"\ntimeout_s = 300\n\n"
           "[topology]\nkind = \"dumbbell\"\npairs = 2\nbottleneck_queue = 15\n\n"
           "[[flow]]\nname = \"large\"\nprotocol = " + quoted(large) +
           "\nbytes = \"1MB\"\nport = 5001\ntrace = true\n\n"
           "[[flow]]\nname = \"small\"\nprotocol = " + quoted(small) +
           "\nbytes = \"300KB\"\nport = 5002\nstart_s = 1.0\n\n"
           "[sweep]\ntopology.bottleneck_queue = " + list(qs) +
           "\nflow.small.start_s = " + list(delays) +
           "\n\n[sweep.zip]\nscenario.seed = " + list(seeds) + "\n";
  return s;
}

// Table 2, one column and one seed set: tcplib Reno background against
// a traced 1 MB transfer, queues {10, 15, 20} x 19 seeds, seed =
// 100 + queue*100 + 19*set + s (set 0 is table2.scn's formula).
ScenarioText table2(bool vegas, int set, std::uint64_t offset, bool smoke) {
  const int reps = smoke ? 2 : 19;
  std::vector<std::string> seeds;
  for (const int q : {10, 15, 20}) {
    for (int s = 0; s < reps; ++s) {
      seeds.push_back(std::to_string(100 + q * 100 + 19 * set + s + offset));
    }
  }
  ScenarioText t;
  t.name = vegas ? "table2-background" : "table2-reno";
  if (set > 0) t.name += "-s" + std::to_string(set);
  const std::string transfer =
      vegas ? "protocol = \"vegas\"\nalpha = 2\nbeta = 4\n"
            : "protocol = \"reno\"\n";
  t.text = "[scenario]\nname = " + quoted(t.name) +
           "\nstop = \"flows-done\"\ntimeout_s = 400\ngoodput_horizon_s = 60\n\n"
           "[topology]\nkind = \"dumbbell\"\npairs = 3\nbottleneck_queue = 10\n\n"
           "[[traffic]]\nname = \"background\"\nclient = \"left0\"\n"
           "server = \"right0\"\ninterarrival_s = 0.4\nlisten_port = 7000\n"
           "protocol = \"reno\"\n\n"
           "[[flow]]\nname = \"transfer\"\n" + transfer +
           "bytes = \"1MB\"\nsrc = \"left1\"\ndst = \"right1\"\nport = 5001\n"
           "start_s = 5.0\ntrace = true\n\n"
           "[sweep]\ntopology.bottleneck_queue = [10, 15, 20]\nrepeat = " +
           std::to_string(reps) + "\n\n[sweep.zip]\nscenario.seed = " +
           list(seeds) + "\n";
  return t;
}

// Every module against every other on a shared bottleneck (ccmatrix.scn).
ScenarioText ccmatrix(std::uint64_t offset, bool smoke) {
  std::vector<std::string> mods;
  for (const char* m : kCcModules) {
    const std::string name = m;
    if (!smoke || name == "reno" || name == "vegas") mods.push_back(quoted(m));
  }
  ScenarioText t;
  t.name = "cc-matrix";
  t.text = "[scenario]\nname = \"cc-matrix\"\nseed = " +
           std::to_string(77 + offset) +
           "\nstop = \"flows-done\"\ntimeout_s = 600\n\n"
           "[topology]\nkind = \"dumbbell\"\npairs = 2\nbottleneck_queue = 20\n\n"
           "[[flow]]\nname = \"a\"\nprotocol = \"reno\"\nbytes = \"300KB\"\n"
           "port = 5001\ntrace = true\n\n"
           "[[flow]]\nname = \"b\"\nprotocol = \"reno\"\nbytes = \"300KB\"\n"
           "port = 5002\ntrace = true\n\n"
           "[sweep]\nflow.a.protocol = " + list(mods) +
           "\nflow.b.protocol = " + list(mods) + "\n";
  return t;
}

}  // namespace

std::uint64_t seed_offset(std::uint64_t bench_seed) {
  return (bench_seed % 100000) * 10000;
}

ScenarioText fanin_text(std::uint64_t bench_seed, bool smoke) {
  ScenarioText t;
  t.name = smoke ? "megaflows-smoke" : "megaflows";
  t.text = "[scenario]\nname = " + quoted(t.name) +
           "\nstop = \"timeout\"\ntimeout_s = " + (smoke ? "2" : "8") +
           "\nseed = " + std::to_string(42 + seed_offset(bench_seed)) +
           "\n\n[topology]\nkind = \"dumbbell\"\npairs = 17\n"
           "bottleneck_kbps = 1000000\nbottleneck_delay_ms = 10\n"
           "bottleneck_queue = 256\naccess_mbps = 100\naccess_queue = 512\n";
  for (int g = 0; g < 16; ++g) {
    const std::string n = std::to_string(g);
    t.text += "\n[[flow]]\nname = \"fan" + n +
              "\"\nprotocol = \"vegas\"\nbytes = \"64KB\"\nsrc = \"left" + n +
              "\"\ndst = \"right" + n + "\"\nport = 5001\ncount = " +
              (smoke ? "40" : "6250") +
              "\nstagger_s = 0.0008\nstart_s = 0.1\n";
  }
  t.text +=
      "\n[[flow]]\nname = \"probe\"\nprotocol = \"reno\"\nbytes = \"256KB\"\n"
      "src = \"left16\"\ndst = \"right16\"\nport = 4001\nstart_s = 0.5\n"
      "trace = true\n";
  return t;
}

std::vector<ScenarioText> paper_grid_texts(std::uint64_t bench_seed,
                                           bool smoke) {
  const std::uint64_t off = seed_offset(bench_seed);
  std::vector<ScenarioText> out;
  for (const char* large : {"reno", "vegas"}) {
    for (const char* small : {"reno", "vegas"}) {
      out.push_back(table1(large, small, off, smoke));
    }
  }
  for (const bool vegas : {false, true}) {
    for (int set = 0; set < (smoke ? 1 : kTable2SeedSets); ++set) {
      out.push_back(table2(vegas, set, off, smoke));
    }
  }
  out.push_back(ccmatrix(off, smoke));
  return out;
}

}  // namespace perfbench
