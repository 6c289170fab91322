#include "dp/spent_ledger.h"

#include <cstdio>
#include <limits>

#include "dp/rdp_accountant.h"

namespace dpbr {
namespace dp {

SpentLedger::SpentLedger(double q_client, double q_record,
                         double noise_multiplier, double delta)
    : q_client_(q_client),
      q_record_(q_record),
      noise_multiplier_(noise_multiplier),
      delta_(delta) {}

void SpentLedger::ChargeRound(int64_t round) {
  ++rounds_charged_;
  if (round > last_round_) last_round_ = round;
}

Result<double> SpentLedger::CurrentEpsilon() const {
  if (rounds_charged_ == 0) return 0.0;
  if (!dp_enabled()) return std::numeric_limits<double>::infinity();
  if (rounds_charged_ > std::numeric_limits<int>::max()) {
    return Status::OutOfRange("spent ledger: too many rounds to compose");
  }
  return ComputeEpsilon(q_client_ * q_record_, noise_multiplier_,
                        static_cast<int>(rounds_charged_), delta_);
}

std::string SpentLedger::ToString() const {
  char eps_buf[64];
  Result<double> eps = CurrentEpsilon();
  if (eps.ok()) {
    std::snprintf(eps_buf, sizeof(eps_buf), "%.6g", eps.value());
  } else {
    std::snprintf(eps_buf, sizeof(eps_buf), "<%s>",
                  eps.status().message().c_str());
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "rounds=%lld last_round=%lld q_client=%.6g q_record=%.6g "
                "sigma=%.6g delta=%.3g eps=%s",
                static_cast<long long>(rounds_charged_),
                static_cast<long long>(last_round_), q_client_, q_record_,
                noise_multiplier_, delta_, eps_buf);
  return buf;
}

void SpentLedger::EncodeTo(durability::ByteWriter* w) const {
  w->PutDouble(q_client_);
  w->PutDouble(q_record_);
  w->PutDouble(noise_multiplier_);
  w->PutDouble(delta_);
  w->PutI64(rounds_charged_);
  w->PutI64(last_round_);
}

Result<SpentLedger> SpentLedger::DecodeFrom(durability::ByteReader* r) {
  SpentLedger ledger;
  DPBR_RETURN_NOT_OK(r->GetDouble(&ledger.q_client_));
  DPBR_RETURN_NOT_OK(r->GetDouble(&ledger.q_record_));
  DPBR_RETURN_NOT_OK(r->GetDouble(&ledger.noise_multiplier_));
  DPBR_RETURN_NOT_OK(r->GetDouble(&ledger.delta_));
  DPBR_RETURN_NOT_OK(r->GetI64(&ledger.rounds_charged_));
  DPBR_RETURN_NOT_OK(r->GetI64(&ledger.last_round_));
  if (!(ledger.q_client_ >= 0.0 && ledger.q_client_ <= 1.0)) {
    return Status::InvalidArgument(
        "spent ledger: client sampling rate q_client must lie in [0, 1]");
  }
  if (!(ledger.q_record_ >= 0.0 && ledger.q_record_ <= 1.0)) {
    return Status::InvalidArgument(
        "spent ledger: record sampling rate q_record must lie in [0, 1]");
  }
  if (!(ledger.noise_multiplier_ >= 0.0)) {
    return Status::InvalidArgument(
        "spent ledger: noise multiplier must be >= 0 (0 without DP)");
  }
  if (ledger.rounds_charged_ < 0) {
    return Status::InvalidArgument("spent ledger: negative round count");
  }
  return ledger;
}

}  // namespace dp
}  // namespace dpbr
