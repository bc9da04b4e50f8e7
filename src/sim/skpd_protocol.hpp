// skpd wire protocol: length-prefixed frames over a loopback stream.
//
// Layout of every frame, little-endian throughout:
//
//   u32 length   — byte count of everything after this field (>= 1)
//   u8  type     — SkpdFrameType
//   ...payload   — type-specific, length - 1 bytes
//
// Fixed-width numeric payload fields are raw little-endian u32/u64;
// doubles travel as the u64 bit pattern of the IEEE-754 value, so every
// access time and metric round-trips EXACTLY (the resume contract is
// bit-identity, not approximate equality). Variable-size payloads (the
// spec in HELLO, the final result in STATS_RESULT, error text) are
// `key=value\n` text whose doubles are shortest-round-trip
// std::to_chars — also exact.
//
// Session state machine:
//
//   client                          server
//   ------                          ------
//   HELLO {version, token=0,  -->   create session from spec
//          last_ack=0, spec}  <--   WELCOME {token, executed=0}
//   STEP {seq=1, ack=0}       -->   execute cycle 1
//                             <--   STEP_RESULT {seq=1, ...}
//   ...                             (server retains results > last ack)
//   -- connection lost --           (session survives, detached)
//   HELLO {token, last_ack=k} -->   prune replay buffer through k
//                             <--   WELCOME {token, executed}
//   STEP {seq=k+1, ack=k}     -->   seq <= executed: REPLAY the stored
//                             <--   result (never re-execute — this is
//                                   what makes resume bit-identical);
//                                   seq == executed+1: execute.
//   PING {nonce}              <->   PONG {nonce}   (either direction)
//   STATS {}                  -->   (requires the run complete)
//                             <--   STATS_RESULT {result text}
//   BYE {}                    -->   session retired, connection closed
//
// Any protocol violation is answered with ERROR {message} and the
// connection is dropped; the session itself survives until the daemon's
// linger deadline so a well-behaved client can still resume.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/netsim_stepper.hpp"
#include "sim/runtime.hpp"

namespace skp {

// "SKPD" — first payload field of HELLO, so a stray client speaking some
// other protocol is rejected before anything is parsed as a spec.
inline constexpr std::uint32_t kSkpdMagic = 0x44504B53u;
// Version 2 retired the pipelined-execution spec key.
inline constexpr std::uint32_t kSkpdProtocolVersion = 2;
// Hard ceiling on a single frame (type byte + payload). A spec or result
// text is a few KB; anything near this size is a corrupt or hostile
// length prefix, and parse_skpd_frame throws rather than buffering it.
inline constexpr std::size_t kSkpdMaxFrameBytes = 1u << 20;

enum class SkpdFrameType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kStep = 3,
  kStepResult = 4,
  kPing = 5,
  kPong = 6,
  kStats = 7,
  kStatsResult = 8,
  kBye = 9,
  kError = 10,
};

const char* to_string(SkpdFrameType type);

struct SkpdHello {
  std::uint32_t version = kSkpdProtocolVersion;
  std::uint64_t token = 0;     // 0 = new session; else resume this token
  std::uint64_t last_ack = 0;  // highest STEP_RESULT seq the client holds
  std::string spec_text;       // encode_sim_spec() of the session's spec
};

struct SkpdWelcome {
  std::uint64_t token = 0;
  std::uint64_t executed = 0;  // cycles the session has already run
  bool resumed = false;
};

struct SkpdStep {
  std::uint64_t seq = 0;  // 1-based cycle to execute or replay
  std::uint64_t ack = 0;  // highest result seq received; prunes replay
};

// ---- Framing ------------------------------------------------------------

struct SkpdFrame {
  SkpdFrameType type;
  std::string_view payload;  // view into the caller's buffer
};

// Appends one complete frame to `out`.
void append_skpd_frame(std::string& out, SkpdFrameType type,
                       std::string_view payload);

// Parses the frame starting at buf[offset]. Returns std::nullopt when the
// buffer does not yet hold a complete frame (read more); on success
// advances `offset` past the frame. Throws std::invalid_argument on a
// zero or oversized length prefix or an unknown type — the connection is
// unrecoverable at that point.
std::optional<SkpdFrame> parse_skpd_frame(std::string_view buf,
                                          std::size_t& offset);

// ---- Fixed-layout payload codecs ----------------------------------------
// decode_* throw std::invalid_argument on short/long payloads.

std::string encode_hello(const SkpdHello& hello);
SkpdHello decode_hello(std::string_view payload);

std::string encode_welcome(const SkpdWelcome& welcome);
SkpdWelcome decode_welcome(std::string_view payload);

std::string encode_step(const SkpdStep& step);
SkpdStep decode_step(std::string_view payload);

std::string encode_step_result(const NetsimStepSnapshot& snap);
NetsimStepSnapshot decode_step_result(std::string_view payload);

std::string encode_ping(std::uint64_t nonce);
std::uint64_t decode_ping(std::string_view payload);

// ---- Spec / result text codecs ------------------------------------------
// `key=value` lines; exact double round-trip via std::to_chars/from_chars.
// decode_sim_spec rejects unknown keys (reject-don't-drop: a client from
// a newer build must not have a field silently ignored); encode_sim_spec
// rejects spec sections the daemon cannot serve (multi_client overrides).

std::string encode_sim_spec(const SimSpec& spec);
SimSpec decode_sim_spec(std::string_view text);

// Covers every field a netsim_des SimResult populates (metrics including
// the exact OnlineStats state, plan-memo tiers, fault/overload books,
// link utilization). Throws on results carrying driver-specific extras
// the wire does not model (per_client rows, the Fig.-5 curve).
std::string encode_sim_result(const SimResult& result);
SimResult decode_sim_result(std::string_view text);

}  // namespace skp
