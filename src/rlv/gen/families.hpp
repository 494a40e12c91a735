#pragma once

// The paper's example systems (Figures 1–4, Section 5) and parametric
// scalable families used by the benchmark harness (experiments E4, E6, E10,
// E15 in DESIGN.md).

#include <cstddef>

#include "rlv/comp/sync.hpp"
#include "rlv/hom/homomorphism.hpp"
#include "rlv/lang/nfa.hpp"
#include "rlv/omega/buchi.hpp"
#include "rlv/petri/net.hpp"

namespace rlv {

// ---------------------------------------------------------------------------
// Paper examples.

/// The Figure 1 Petri net: a server that, after a request, answers `result`
/// or `reject` depending on whether the managed resource is free or locked;
/// the environment may lock/free the resource at any time.
[[nodiscard]] PetriNet figure1_net();

/// The Figure 2 transition system (reachability graph of figure1_net):
/// prefix-closed, all-accepting. Alphabet: lock, free, request, yes, no,
/// result, reject.
[[nodiscard]] Nfa figure2_system();

/// The Figure 3 transition system: the erroneous server — once locked the
/// resource can never be freed, and a request may be rejected even when the
/// resource is free. Same alphabet as figure2_system (the unused `free`
/// action keeps the two systems comparable under one homomorphism).
[[nodiscard]] Nfa figure3_system();

/// The abstracting homomorphism of Section 2: keep request/result/reject,
/// hide everything else. `source` must be the alphabet of figure2_system()
/// or figure3_system().
[[nodiscard]] Homomorphism paper_abstraction(AlphabetRef source);

/// The expected Figure 4 abstract system: request then result-or-reject,
/// looping. Over the target alphabet of paper_abstraction().
[[nodiscard]] Nfa figure4_expected(AlphabetRef target);

/// The Section 5 example: the one-state system with behaviors {a,b}^ω.
[[nodiscard]] Nfa section5_ab_system();

// ---------------------------------------------------------------------------
// Scalable families.

/// n-client generalization of Figure 1: one shared resource, n clients
/// issuing request_i answered with result_i/reject_i; the environment
/// locks/frees the resource. Reachability-graph size grows as 2·4^n.
[[nodiscard]] PetriNet resource_server_net(std::size_t num_clients);

/// Abstraction for resource_server_net: keep request_i/result_i/reject_i of
/// client 0 only; hide all other actions.
[[nodiscard]] Homomorphism resource_server_abstraction(AlphabetRef source);

/// The same n-client server as synchronized components (one resource
/// process plus n client processes) for the compositional pipeline; the
/// sync_product of these components equals the reachability graph of
/// resource_server_net(n) up to alphabet identity.
[[nodiscard]] std::vector<Component> resource_server_components(
    std::size_t num_clients);

/// Token ring of n stations: station i passes the token (pass_i) or works
/// (work_i) while holding it. Prefix-closed transition system with n states
/// per token position.
[[nodiscard]] Nfa token_ring(std::size_t num_stations);

/// Bounded producer/consumer chain: produce / consume with a buffer of the
/// given capacity, plus an `idle` self-loop (Petri net).
[[nodiscard]] PetriNet producer_consumer_net(std::size_t capacity);

/// Alternating-bit protocol over lossy capacity-1 channels, as four
/// synchronized components (sender, message channel, receiver, ack
/// channel). Actions: send0/1, recv0/1, deliver, ack0/1, getack0/1,
/// lose_msg, lose_ack. The protocol's liveness (□◇deliver) is the
/// archetypal property that is false outright (the channel may lose every
/// message) but true under fairness — i.e. a relative liveness property.
[[nodiscard]] std::vector<Component> alternating_bit_components();

/// Peterson's two-process mutual exclusion as a guarded-command system
/// (gen/guarded.hpp). Actions per process i: req_i, setflag_i, turn_i,
/// enter_i, exit_i. Mutual exclusion holds outright; starvation freedom
/// G(req_i → ◇enter_i) needs fairness and is a relative liveness property.
[[nodiscard]] Nfa peterson_system();

/// Chang–Roberts leader election on a unidirectional ring of n processes
/// with distinct ids (capacity-1 links). Actions: init_i (process i sends
/// its id), forward_i (i passes on a larger id), discard_i (i drops a
/// smaller id), elected_i (i sees its own id return). Only the maximum id
/// can ever be elected (safety, holds outright); that it eventually is
/// elected is a relative liveness property realized under fairness.
[[nodiscard]] Nfa leader_election_system(std::size_t num_processes);

}  // namespace rlv
