#include "core/protocol_options.h"

namespace dpbr {
namespace core {

Status ValidateProtocolOptions(const ProtocolOptions& options) {
  if (!options.enable_first_stage && !options.enable_second_stage) {
    return Status::InvalidArgument(
        "at least one aggregation stage must be enabled");
  }
  return Status::OK();
}

}  // namespace core
}  // namespace dpbr
