#pragma once

// rlv_fuzz --parsers: byte-level mutation fuzz of the wire readers
// (net::JsonReader through parse_json, parse_request and parse_response).

#include <cstddef>
#include <cstdint>

namespace rlv {

/// Mutates every seed line `instances` times and checks each mutant; prints
/// a summary and returns 0, or prints the first failing input and returns
/// 1.
int run_parser_fuzz(std::uint64_t seed, std::size_t instances, bool verbose);

}  // namespace rlv
