#include "rlv/gen/families.hpp"

#include <cassert>
#include <string>

#include "rlv/gen/guarded.hpp"
#include "rlv/petri/scenario.hpp"

namespace rlv {

PetriNet figure1_net() {
  PetriNet net;
  const PlaceId free_p = net.add_place("resource_free", 1);
  const PlaceId locked_p = net.add_place("resource_locked", 0);
  const PlaceId idle_p = net.add_place("server_idle", 1);
  const PlaceId got_p = net.add_place("got_request", 0);
  const PlaceId ok_p = net.add_place("answer_ok", 0);
  const PlaceId fail_p = net.add_place("answer_fail", 0);

  const TransId lock = net.add_transition("lock");
  net.add_input(lock, free_p);
  net.add_output(lock, locked_p);

  const TransId free_t = net.add_transition("free");
  net.add_input(free_t, locked_p);
  net.add_output(free_t, free_p);

  const TransId request = net.add_transition("request");
  net.add_input(request, idle_p);
  net.add_output(request, got_p);

  const TransId yes = net.add_transition("yes");
  net.add_input(yes, got_p);
  net.add_read(yes, free_p);
  net.add_output(yes, ok_p);

  const TransId no = net.add_transition("no");
  net.add_input(no, got_p);
  net.add_read(no, locked_p);
  net.add_output(no, fail_p);

  const TransId result = net.add_transition("result");
  net.add_input(result, ok_p);
  net.add_output(result, idle_p);

  const TransId reject = net.add_transition("reject");
  net.add_input(reject, fail_p);
  net.add_output(reject, idle_p);

  return net;
}

namespace {

/// Shared state layout of the Figure 2 / Figure 3 diagrams: resource
/// r ∈ {0 = free, 1 = locked} × server s ∈ {idle, got, ok, fail}.
enum ServerPhase : State { kIdle = 0, kGot = 1, kOk = 2, kFail = 3 };

State fig_state(State resource, State phase) { return resource * 4 + phase; }

AlphabetRef figure_alphabet() {
  return Alphabet::make(
      {"lock", "free", "request", "yes", "no", "result", "reject"});
}

}  // namespace

Nfa figure2_system() {
  auto sigma = figure_alphabet();
  Nfa nfa(sigma);
  for (int i = 0; i < 8; ++i) nfa.add_state(true);
  for (State r = 0; r < 2; ++r) {
    nfa.add_transition(fig_state(r, kIdle), sigma->id("request"),
                       fig_state(r, kGot));
    nfa.add_transition(fig_state(r, kOk), sigma->id("result"),
                       fig_state(r, kIdle));
    nfa.add_transition(fig_state(r, kFail), sigma->id("reject"),
                       fig_state(r, kIdle));
  }
  for (State phase = kIdle; phase <= kFail; ++phase) {
    nfa.add_transition(fig_state(0, phase), sigma->id("lock"),
                       fig_state(1, phase));
    nfa.add_transition(fig_state(1, phase), sigma->id("free"),
                       fig_state(0, phase));
  }
  nfa.add_transition(fig_state(0, kGot), sigma->id("yes"), fig_state(0, kOk));
  nfa.add_transition(fig_state(1, kGot), sigma->id("no"), fig_state(1, kFail));
  nfa.set_initial(fig_state(0, kIdle));
  return nfa;
}

Nfa figure3_system() {
  auto sigma = figure_alphabet();
  Nfa nfa(sigma);
  for (int i = 0; i < 8; ++i) nfa.add_state(true);
  for (State r = 0; r < 2; ++r) {
    nfa.add_transition(fig_state(r, kIdle), sigma->id("request"),
                       fig_state(r, kGot));
    nfa.add_transition(fig_state(r, kOk), sigma->id("result"),
                       fig_state(r, kIdle));
    nfa.add_transition(fig_state(r, kFail), sigma->id("reject"),
                       fig_state(r, kIdle));
  }
  for (State phase = kIdle; phase <= kFail; ++phase) {
    // The error: locking is possible, freeing is not.
    nfa.add_transition(fig_state(0, phase), sigma->id("lock"),
                       fig_state(1, phase));
  }
  nfa.add_transition(fig_state(0, kGot), sigma->id("yes"), fig_state(0, kOk));
  nfa.add_transition(fig_state(1, kGot), sigma->id("no"), fig_state(1, kFail));
  // The second difference: a request can be rejected even when the resource
  // is free.
  nfa.add_transition(fig_state(0, kGot), sigma->id("no"), fig_state(0, kFail));
  nfa.set_initial(fig_state(0, kIdle));
  return nfa;
}

Homomorphism paper_abstraction(AlphabetRef source) {
  return Homomorphism::projection(std::move(source),
                                  {"request", "result", "reject"});
}

Nfa figure4_expected(AlphabetRef target) {
  Nfa nfa(target);
  const State waiting = nfa.add_state(true);
  const State answering = nfa.add_state(true);
  nfa.add_transition(waiting, target->id("request"), answering);
  nfa.add_transition(answering, target->id("result"), waiting);
  nfa.add_transition(answering, target->id("reject"), waiting);
  nfa.set_initial(waiting);
  return nfa;
}

Nfa section5_ab_system() {
  auto sigma = Alphabet::make({"a", "b"});
  Nfa nfa(sigma);
  const State s = nfa.add_state(true);
  nfa.add_transition(s, sigma->id("a"), s);
  nfa.add_transition(s, sigma->id("b"), s);
  nfa.set_initial(s);
  return nfa;
}

PetriNet resource_server_net(std::size_t num_clients) {
  PetriNet net;
  const PlaceId free_p = net.add_place("resource_free", 1);
  const PlaceId locked_p = net.add_place("resource_locked", 0);

  const TransId lock = net.add_transition("lock");
  net.add_input(lock, free_p);
  net.add_output(lock, locked_p);
  const TransId free_t = net.add_transition("free");
  net.add_input(free_t, locked_p);
  net.add_output(free_t, free_p);

  for (std::size_t i = 0; i < num_clients; ++i) {
    const std::string suffix = "_" + std::to_string(i);
    const PlaceId idle_p = net.add_place("idle" + suffix, 1);
    const PlaceId got_p = net.add_place("got" + suffix, 0);
    const PlaceId ok_p = net.add_place("ok" + suffix, 0);
    const PlaceId fail_p = net.add_place("fail" + suffix, 0);

    const TransId request = net.add_transition("request" + suffix);
    net.add_input(request, idle_p);
    net.add_output(request, got_p);

    const TransId yes = net.add_transition("yes" + suffix);
    net.add_input(yes, got_p);
    net.add_read(yes, free_p);
    net.add_output(yes, ok_p);

    const TransId no = net.add_transition("no" + suffix);
    net.add_input(no, got_p);
    net.add_read(no, locked_p);
    net.add_output(no, fail_p);

    const TransId result = net.add_transition("result" + suffix);
    net.add_input(result, ok_p);
    net.add_output(result, idle_p);

    const TransId reject = net.add_transition("reject" + suffix);
    net.add_input(reject, fail_p);
    net.add_output(reject, idle_p);
  }
  return net;
}

Homomorphism resource_server_abstraction(AlphabetRef source) {
  return Homomorphism::projection(std::move(source),
                                  {"request_0", "result_0", "reject_0"});
}

Nfa peterson_system() {
  GuardedSystem gs;
  // Program counters: idle=0, set=1, give_turn=2, wait=3, critical=4.
  enum : std::uint8_t { kIdle = 0, kSet, kGiveTurn, kWait, kCrit };
  const auto pc0 = gs.add_variable("pc0", 5, kIdle);
  const auto pc1 = gs.add_variable("pc1", 5, kIdle);
  const auto flag0 = gs.add_variable("flag0", 2, 0);
  const auto flag1 = gs.add_variable("flag1", 2, 0);
  const auto turn = gs.add_variable("turn", 2, 0);

  struct Proc {
    GuardedSystem::VarId pc, my_flag, other_flag;
    std::uint8_t other_id;
    const char* suffix;
  };
  const Proc procs[2] = {{pc0, flag0, flag1, 1, "_0"},
                         {pc1, flag1, flag0, 0, "_1"}};

  for (const Proc& p : procs) {
    const std::string suffix = p.suffix;
    gs.add_rule(
        "req" + suffix,
        [p](const Valuation& v) { return v[p.pc] == kIdle; },
        [p](Valuation& v) { v[p.pc] = kSet; });
    gs.add_rule(
        "setflag" + suffix,
        [p](const Valuation& v) { return v[p.pc] == kSet; },
        [p](Valuation& v) {
          v[p.my_flag] = 1;
          v[p.pc] = kGiveTurn;
        });
    gs.add_rule(
        "turn" + suffix,
        [p](const Valuation& v) { return v[p.pc] == kGiveTurn; },
        [p, turn](Valuation& v) {
          v[turn] = p.other_id;
          v[p.pc] = kWait;
        });
    gs.add_rule(
        "enter" + suffix,
        [p, turn](const Valuation& v) {
          const std::uint8_t me = static_cast<std::uint8_t>(1 - p.other_id);
          return v[p.pc] == kWait &&
                 (v[p.other_flag] == 0 || v[turn] == me);
        },
        [p](Valuation& v) { v[p.pc] = kCrit; });
    gs.add_rule(
        "exit" + suffix,
        [p](const Valuation& v) { return v[p.pc] == kCrit; },
        [p](Valuation& v) {
          v[p.my_flag] = 0;
          v[p.pc] = kIdle;
        });
  }

  GuardedSystem::BuildResult built = gs.build();
  assert(built.complete);
  // Sanity: mutual exclusion at the state level — never both critical.
  for ([[maybe_unused]] const Valuation& v : built.valuations) {
    assert(!(v[pc0] == kCrit && v[pc1] == kCrit));
  }
  return std::move(built.system);
}

Nfa leader_election_system(std::size_t num_processes) {
  assert(num_processes >= 2 && num_processes <= 8);
  GuardedSystem gs;
  const std::uint8_t n = static_cast<std::uint8_t>(num_processes);

  // ch[i]: id in transit on the link i -> (i+1)%n; value n = empty.
  // st[i]: 0 = idle, 1 = participating, 2 = leader.
  std::vector<GuardedSystem::VarId> ch(n);
  std::vector<GuardedSystem::VarId> st(n);
  for (std::uint8_t i = 0; i < n; ++i) {
    ch[i] = gs.add_variable("ch_" + std::to_string(i),
                            static_cast<std::uint8_t>(n + 1), n);
    st[i] = gs.add_variable("st_" + std::to_string(i), 3, 0);
  }

  // Environment heartbeat: always enabled, changes nothing. Keeps every
  // run extendable to an infinite one (protocol steps are one-shot; without
  // the tick the system would deadlock after quiescence and lim(L) would
  // collapse to the electing runs only).
  gs.add_rule(
      "tick", [](const Valuation&) { return true; }, [](Valuation&) {});

  for (std::uint8_t i = 0; i < n; ++i) {
    const std::string suffix = "_" + std::to_string(i);
    const std::uint8_t prev = static_cast<std::uint8_t>((i + n - 1) % n);
    const auto out_link = ch[i];
    const auto in_link = ch[prev];
    const auto my_state = st[i];

    // Initiate: announce own id on the outgoing link.
    gs.add_rule(
        "init" + suffix,
        [my_state, out_link, n](const Valuation& v) {
          return v[my_state] == 0 && v[out_link] == n;
        },
        [my_state, out_link, i](Valuation& v) {
          v[my_state] = 1;
          v[out_link] = i;
        });
    // Forward a larger id.
    gs.add_rule(
        "forward" + suffix,
        [in_link, out_link, i, n](const Valuation& v) {
          return v[in_link] != n && v[in_link] > i && v[out_link] == n;
        },
        [in_link, out_link, n](Valuation& v) {
          v[out_link] = v[in_link];
          v[in_link] = n;
        });
    // Discard a smaller id.
    gs.add_rule(
        "discard" + suffix,
        [in_link, i, n](const Valuation& v) {
          return v[in_link] != n && v[in_link] < i;
        },
        [in_link, n](Valuation& v) { v[in_link] = n; });
    // Own id returned: elected.
    gs.add_rule(
        "elected" + suffix,
        [in_link, my_state, i](const Valuation& v) {
          return v[in_link] == i && v[my_state] == 1;
        },
        [in_link, my_state, n](Valuation& v) {
          v[in_link] = n;
          v[my_state] = 2;
        });
  }

  GuardedSystem::BuildResult built = gs.build();
  assert(built.complete);
  return std::move(built.system);
}

std::vector<Component> alternating_bit_components() {
  auto sigma = Alphabet::make({"send0", "send1", "recv0", "recv1", "deliver",
                               "ack0", "ack1", "getack0", "getack1",
                               "lose_msg", "lose_ack"});
  std::vector<Component> components;

  // Sender: transmit the current bit (repeatedly, on timeout) until the
  // matching ack arrives; stale acks are ignored.
  {
    Nfa sender(sigma);
    const State try0 = sender.add_state(true);   // ready/retrying bit 0
    const State wait0 = sender.add_state(true);  // bit 0 in flight
    const State try1 = sender.add_state(true);
    const State wait1 = sender.add_state(true);
    sender.add_transition(try0, sigma->id("send0"), wait0);
    sender.add_transition(wait0, sigma->id("send0"), wait0);  // retransmit
    sender.add_transition(wait0, sigma->id("getack0"), try1);
    sender.add_transition(wait0, sigma->id("getack1"), wait0);  // stale
    sender.add_transition(try1, sigma->id("send1"), wait1);
    sender.add_transition(wait1, sigma->id("send1"), wait1);
    sender.add_transition(wait1, sigma->id("getack1"), try0);
    sender.add_transition(wait1, sigma->id("getack0"), wait1);  // stale
    sender.set_initial(try0);
    components.push_back(
        {std::move(sender),
         participation(sigma, {"send0", "send1", "getack0", "getack1"})});
  }

  // Message channel, capacity 1, lossy. A retransmission into a full
  // channel overwrites (same bit, so state is unchanged).
  {
    Nfa channel(sigma);
    const State empty = channel.add_state(true);
    const State full0 = channel.add_state(true);
    const State full1 = channel.add_state(true);
    channel.add_transition(empty, sigma->id("send0"), full0);
    channel.add_transition(empty, sigma->id("send1"), full1);
    channel.add_transition(full0, sigma->id("send0"), full0);
    channel.add_transition(full1, sigma->id("send1"), full1);
    channel.add_transition(full0, sigma->id("recv0"), empty);
    channel.add_transition(full1, sigma->id("recv1"), empty);
    channel.add_transition(full0, sigma->id("lose_msg"), empty);
    channel.add_transition(full1, sigma->id("lose_msg"), empty);
    channel.set_initial(empty);
    components.push_back(
        {std::move(channel),
         participation(sigma, {"send0", "send1", "recv0", "recv1",
                               "lose_msg"})});
  }

  // Receiver: deliver fresh messages, then ack; duplicates are re-acked
  // without delivering.
  {
    Nfa receiver(sigma);
    const State expect0 = receiver.add_state(true);
    const State got0 = receiver.add_state(true);
    const State acking0 = receiver.add_state(true);
    const State expect1 = receiver.add_state(true);
    const State got1 = receiver.add_state(true);
    const State acking1 = receiver.add_state(true);
    const State dup0 = receiver.add_state(true);  // duplicate bit-0 message
    const State dup1 = receiver.add_state(true);

    receiver.add_transition(expect0, sigma->id("recv0"), got0);
    receiver.add_transition(got0, sigma->id("deliver"), acking0);
    receiver.add_transition(acking0, sigma->id("ack0"), expect1);
    receiver.add_transition(expect1, sigma->id("recv0"), dup0);
    receiver.add_transition(dup0, sigma->id("ack0"), expect1);

    receiver.add_transition(expect1, sigma->id("recv1"), got1);
    receiver.add_transition(got1, sigma->id("deliver"), acking1);
    receiver.add_transition(acking1, sigma->id("ack1"), expect0);
    receiver.add_transition(expect0, sigma->id("recv1"), dup1);
    receiver.add_transition(dup1, sigma->id("ack1"), expect0);

    receiver.set_initial(expect0);
    components.push_back(
        {std::move(receiver),
         participation(sigma, {"recv0", "recv1", "deliver", "ack0", "ack1"})});
  }

  // Ack channel, capacity 1, lossy; re-acks overwrite.
  {
    Nfa ack_channel(sigma);
    const State empty = ack_channel.add_state(true);
    const State full0 = ack_channel.add_state(true);
    const State full1 = ack_channel.add_state(true);
    ack_channel.add_transition(empty, sigma->id("ack0"), full0);
    ack_channel.add_transition(empty, sigma->id("ack1"), full1);
    ack_channel.add_transition(full0, sigma->id("ack0"), full0);
    ack_channel.add_transition(full1, sigma->id("ack1"), full1);
    ack_channel.add_transition(full0, sigma->id("getack0"), empty);
    ack_channel.add_transition(full1, sigma->id("getack1"), empty);
    ack_channel.add_transition(full0, sigma->id("lose_ack"), empty);
    ack_channel.add_transition(full1, sigma->id("lose_ack"), empty);
    ack_channel.set_initial(empty);
    components.push_back(
        {std::move(ack_channel),
         participation(sigma, {"ack0", "ack1", "getack0", "getack1",
                               "lose_ack"})});
  }

  return components;
}

std::vector<Component> resource_server_components(std::size_t num_clients) {
  std::vector<std::string> names = {"lock", "free"};
  for (std::size_t i = 0; i < num_clients; ++i) {
    const std::string suffix = "_" + std::to_string(i);
    names.push_back("request" + suffix);
    names.push_back("yes" + suffix);
    names.push_back("no" + suffix);
    names.push_back("result" + suffix);
    names.push_back("reject" + suffix);
  }
  auto sigma = Alphabet::make(names);

  std::vector<Component> components;

  // Resource process: free/locked; yes_i requires (and keeps) free, no_i
  // requires (and keeps) locked — the read arcs of the net.
  {
    Nfa resource(sigma);
    const State free_s = resource.add_state(true);
    const State locked_s = resource.add_state(true);
    resource.add_transition(free_s, sigma->id("lock"), locked_s);
    resource.add_transition(locked_s, sigma->id("free"), free_s);
    std::vector<std::string> involved = {"lock", "free"};
    for (std::size_t i = 0; i < num_clients; ++i) {
      const std::string suffix = "_" + std::to_string(i);
      resource.add_transition(free_s, sigma->id("yes" + suffix), free_s);
      resource.add_transition(locked_s, sigma->id("no" + suffix), locked_s);
      involved.push_back("yes" + suffix);
      involved.push_back("no" + suffix);
    }
    resource.set_initial(free_s);
    components.push_back({std::move(resource), participation(sigma, involved)});
  }

  for (std::size_t i = 0; i < num_clients; ++i) {
    const std::string suffix = "_" + std::to_string(i);
    Nfa client(sigma);
    const State idle = client.add_state(true);
    const State got = client.add_state(true);
    const State ok = client.add_state(true);
    const State fail = client.add_state(true);
    client.add_transition(idle, sigma->id("request" + suffix), got);
    client.add_transition(got, sigma->id("yes" + suffix), ok);
    client.add_transition(got, sigma->id("no" + suffix), fail);
    client.add_transition(ok, sigma->id("result" + suffix), idle);
    client.add_transition(fail, sigma->id("reject" + suffix), idle);
    client.set_initial(idle);
    components.push_back(
        {std::move(client),
         participation(sigma, {"request" + suffix, "yes" + suffix,
                               "no" + suffix, "result" + suffix,
                               "reject" + suffix})});
  }
  return components;
}

Nfa token_ring(std::size_t num_stations) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < num_stations; ++i) {
    names.push_back("work_" + std::to_string(i));
    names.push_back("pass_" + std::to_string(i));
  }
  auto sigma = Alphabet::make(names);
  Nfa nfa(sigma);
  for (std::size_t i = 0; i < num_stations; ++i) nfa.add_state(true);
  for (std::size_t i = 0; i < num_stations; ++i) {
    const State s = static_cast<State>(i);
    const State next = static_cast<State>((i + 1) % num_stations);
    nfa.add_transition(s, sigma->id("work_" + std::to_string(i)), s);
    nfa.add_transition(s, sigma->id("pass_" + std::to_string(i)), next);
  }
  nfa.set_initial(0);
  return nfa;
}

PetriNet producer_consumer_net(std::size_t capacity) {
  return petri::bounded_buffer_net(capacity).net;
}

}  // namespace rlv
