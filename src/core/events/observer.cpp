#include "core/events/observer.hpp"

namespace redspot {

const char* to_string(CheckpointCommit::Outcome outcome) {
  switch (outcome) {
    case CheckpointCommit::Outcome::kCommitted:
      return "committed";
    case CheckpointCommit::Outcome::kWriteFailed:
      return "write-failed";
    case CheckpointCommit::Outcome::kCorrupt:
      return "corrupt";
  }
  return "?";
}

const char* to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCkptWriteFailure:
      return "ckpt-write-failure";
    case FaultEvent::Kind::kCkptCorruption:
      return "ckpt-corruption";
    case FaultEvent::Kind::kRestartFailure:
      return "restart-failure";
    case FaultEvent::Kind::kRequestRejection:
      return "request-rejection";
    case FaultEvent::Kind::kNoticeDropped:
      return "notice-dropped";
    case FaultEvent::Kind::kNoticeLate:
      return "notice-late";
  }
  return "?";
}

}  // namespace redspot
