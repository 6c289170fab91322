#include "fl/round_state.h"

#include <cstdio>

#include "common/logging.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"

namespace dpbr {
namespace fl {
namespace {

using durability::ByteReader;
using durability::ByteWriter;

// Caps for count fields decoded from disk. Generous relative to anything
// the trainer writes, small enough that a corrupt count fails fast
// instead of driving a multi-gigabyte allocation loop.
constexpr uint64_t kMaxWorkers = 1u << 20;
constexpr uint64_t kMaxMomentumSlots = 1u << 16;
constexpr uint64_t kMaxEvals = 1u << 24;

void EncodeFingerprint(const RoundStateFingerprint& fp, ByteWriter* w) {
  w->PutU64(fp.seed);
  w->PutI64(fp.num_honest);
  w->PutI64(fp.num_byzantine);
  w->PutI64(fp.epochs);
  w->PutI64(fp.batch_size);
  w->PutI64(fp.total_rounds);
  w->PutU64(fp.dim);
  w->PutDouble(fp.epsilon);
  w->PutDouble(fp.client_sampling_rate);
  w->PutU8(fp.momentum_reset);
  w->PutU8(fp.iid);
}

Status DecodeFingerprint(ByteReader* r, RoundStateFingerprint* fp) {
  DPBR_RETURN_NOT_OK(r->GetU64(&fp->seed));
  DPBR_RETURN_NOT_OK(r->GetI64(&fp->num_honest));
  DPBR_RETURN_NOT_OK(r->GetI64(&fp->num_byzantine));
  DPBR_RETURN_NOT_OK(r->GetI64(&fp->epochs));
  DPBR_RETURN_NOT_OK(r->GetI64(&fp->batch_size));
  DPBR_RETURN_NOT_OK(r->GetI64(&fp->total_rounds));
  DPBR_RETURN_NOT_OK(r->GetU64(&fp->dim));
  DPBR_RETURN_NOT_OK(r->GetDouble(&fp->epsilon));
  DPBR_RETURN_NOT_OK(r->GetDouble(&fp->client_sampling_rate));
  DPBR_RETURN_NOT_OK(r->GetU8(&fp->momentum_reset));
  DPBR_RETURN_NOT_OK(r->GetU8(&fp->iid));
  return Status::OK();
}

void EncodeMomentum(
    const std::vector<const std::vector<std::vector<float>>*>& m,
    ByteWriter* w) {
  w->PutU64(m.size());
  for (const auto* worker : m) {
    w->PutU64(worker->size());
    for (const auto& slot : *worker) w->PutFloatVec(slot);
  }
}

Status DecodeMomentum(ByteReader* r,
                      std::vector<std::vector<std::vector<float>>>* m) {
  uint64_t workers = 0;
  DPBR_RETURN_NOT_OK(r->GetU64(&workers));
  if (workers > kMaxWorkers) {
    return Status::InvalidArgument("round state: implausible worker count");
  }
  m->clear();
  m->resize(workers);
  for (auto& worker : *m) {
    uint64_t slots = 0;
    DPBR_RETURN_NOT_OK(r->GetU64(&slots));
    if (slots > kMaxMomentumSlots) {
      return Status::InvalidArgument(
          "round state: implausible momentum slot count");
    }
    worker.resize(slots);
    for (auto& slot : worker) DPBR_RETURN_NOT_OK(r->GetFloatVec(&slot));
  }
  return Status::OK();
}

void EncodeHistory(const TrainingHistory& h, ByteWriter* w) {
  w->PutU64(h.evals.size());
  for (const EvalPoint& p : h.evals) {
    w->PutI64(p.round);
    w->PutDouble(p.epoch);
    w->PutDouble(p.test_accuracy);
  }
  w->PutDouble(h.final_accuracy);
  w->PutDouble(h.best_accuracy);
  w->PutI64(h.total_rounds);
  w->PutIntVec(h.round_participants);
  w->PutDouble(h.epsilon);
  w->PutDouble(h.sigma);
  w->PutDouble(h.learning_rate);
  w->PutI64(h.completed_rounds);
  w->PutU8(h.interrupted ? 1 : 0);
}

Status DecodeHistory(ByteReader* r, TrainingHistory* h) {
  uint64_t n_evals = 0;
  DPBR_RETURN_NOT_OK(r->GetU64(&n_evals));
  if (n_evals > kMaxEvals) {
    return Status::InvalidArgument("round state: implausible eval count");
  }
  h->evals.clear();
  h->evals.resize(n_evals);
  for (EvalPoint& p : h->evals) {
    int64_t round = 0;
    DPBR_RETURN_NOT_OK(r->GetI64(&round));
    p.round = static_cast<int>(round);
    DPBR_RETURN_NOT_OK(r->GetDouble(&p.epoch));
    DPBR_RETURN_NOT_OK(r->GetDouble(&p.test_accuracy));
  }
  DPBR_RETURN_NOT_OK(r->GetDouble(&h->final_accuracy));
  DPBR_RETURN_NOT_OK(r->GetDouble(&h->best_accuracy));
  int64_t total_rounds = 0;
  DPBR_RETURN_NOT_OK(r->GetI64(&total_rounds));
  h->total_rounds = static_cast<int>(total_rounds);
  DPBR_RETURN_NOT_OK(r->GetIntVec(&h->round_participants));
  DPBR_RETURN_NOT_OK(r->GetDouble(&h->epsilon));
  DPBR_RETURN_NOT_OK(r->GetDouble(&h->sigma));
  DPBR_RETURN_NOT_OK(r->GetDouble(&h->learning_rate));
  int64_t completed = 0;
  DPBR_RETURN_NOT_OK(r->GetI64(&completed));
  h->completed_rounds = static_cast<int>(completed);
  uint8_t interrupted = 0;
  DPBR_RETURN_NOT_OK(r->GetU8(&interrupted));
  h->interrupted = interrupted != 0;
  return Status::OK();
}

Result<std::vector<uint64_t>> DecodeU64Vec(ByteReader* r, uint64_t cap,
                                           const char* what) {
  uint64_t n = 0;
  DPBR_RETURN_NOT_OK(r->GetU64(&n));
  if (n > cap) {
    return Status::InvalidArgument(std::string("round state: implausible ") +
                                   what + " count");
  }
  std::vector<uint64_t> out(n);
  for (uint64_t& v : out) DPBR_RETURN_NOT_OK(r->GetU64(&v));
  return out;
}

}  // namespace

std::string WalPath(const std::string& dir) {
  return dir + "/" + kWalFileName;
}

bool RoundStateFingerprint::operator==(
    const RoundStateFingerprint& o) const {
  return seed == o.seed && num_honest == o.num_honest &&
         num_byzantine == o.num_byzantine && epochs == o.epochs &&
         batch_size == o.batch_size && total_rounds == o.total_rounds &&
         dim == o.dim && epsilon == o.epsilon &&
         client_sampling_rate == o.client_sampling_rate &&
         momentum_reset == o.momentum_reset && iid == o.iid;
}

std::string RoundStateFingerprint::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu honest=%lld byz=%lld epochs=%lld bc=%lld "
                "T=%lld d=%llu eps=%.6g q_c=%.6g reset=%u iid=%u",
                static_cast<unsigned long long>(seed),
                static_cast<long long>(num_honest),
                static_cast<long long>(num_byzantine),
                static_cast<long long>(epochs),
                static_cast<long long>(batch_size),
                static_cast<long long>(total_rounds),
                static_cast<unsigned long long>(dim), epsilon,
                client_sampling_rate, momentum_reset, iid);
  return buf;
}

void EncodeRoundState(const RoundStateView& state, ByteWriter* w) {
  w->PutU32(kRoundStateVersion);
  EncodeFingerprint(state.fingerprint, w);
  w->PutI64(state.completed_round);
  w->PutFloatVec(*state.model_params);
  EncodeMomentum(state.honest_momentum, w);
  EncodeMomentum(state.poisoned_momentum, w);
  w->PutU64(state.worker_rng_keys.size());
  for (uint64_t key : state.worker_rng_keys) w->PutU64(key);
  w->PutString(*state.aggregator_state);
  state.ledger->EncodeTo(w);
  EncodeHistory(*state.history, w);
}

std::string EncodeRoundState(const PersistentRoundState& state) {
  RoundStateView view;
  view.fingerprint = state.fingerprint;
  view.completed_round = state.completed_round;
  view.model_params = &state.model_params;
  for (const auto& m : state.honest_momentum) {
    view.honest_momentum.push_back(&m);
  }
  for (const auto& m : state.poisoned_momentum) {
    view.poisoned_momentum.push_back(&m);
  }
  view.worker_rng_keys = state.worker_rng_keys;
  view.aggregator_state = &state.aggregator_state;
  view.ledger = &state.ledger;
  view.history = &state.history;
  return durability::EncodeToString(
      [&](ByteWriter* w) { EncodeRoundState(view, w); });
}

Result<PersistentRoundState> DecodeRoundState(const std::string& payload) {
  ByteReader r(payload);
  uint32_t version = 0;
  DPBR_RETURN_NOT_OK(r.GetU32(&version));
  if (version != kRoundStateVersion) {
    return Status::InvalidArgument("round state: unsupported version " +
                                   std::to_string(version));
  }
  PersistentRoundState state;
  DPBR_RETURN_NOT_OK(DecodeFingerprint(&r, &state.fingerprint));
  DPBR_RETURN_NOT_OK(r.GetI64(&state.completed_round));
  DPBR_RETURN_NOT_OK(r.GetFloatVec(&state.model_params));
  DPBR_RETURN_NOT_OK(DecodeMomentum(&r, &state.honest_momentum));
  DPBR_RETURN_NOT_OK(DecodeMomentum(&r, &state.poisoned_momentum));
  DPBR_ASSIGN_OR_RETURN(state.worker_rng_keys,
                        DecodeU64Vec(&r, kMaxWorkers, "rng key"));
  DPBR_RETURN_NOT_OK(r.GetString(&state.aggregator_state));
  DPBR_ASSIGN_OR_RETURN(state.ledger, dp::SpentLedger::DecodeFrom(&r));
  DPBR_RETURN_NOT_OK(DecodeHistory(&r, &state.history));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("round state: trailing bytes");
  }
  return state;
}

std::string RoundCommitRecord::Encode() const {
  ByteWriter w;
  w.PutI64(round);
  w.PutI64(participants);
  w.PutU8(has_eval);
  w.PutDouble(eval_epoch);
  w.PutDouble(eval_accuracy);
  return w.Take();
}

Result<RoundCommitRecord> RoundCommitRecord::Decode(
    const std::string& payload) {
  ByteReader r(payload);
  RoundCommitRecord rec;
  DPBR_RETURN_NOT_OK(r.GetI64(&rec.round));
  DPBR_RETURN_NOT_OK(r.GetI64(&rec.participants));
  DPBR_RETURN_NOT_OK(r.GetU8(&rec.has_eval));
  DPBR_RETURN_NOT_OK(r.GetDouble(&rec.eval_epoch));
  DPBR_RETURN_NOT_OK(r.GetDouble(&rec.eval_accuracy));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("round commit record: trailing bytes");
  }
  return rec;
}

Result<DurableRunState> LoadDurableState(const std::string& dir) {
  DurableRunState out;

  DPBR_ASSIGN_OR_RETURN(durability::MaybeCheckpoint latest,
                        durability::LoadLatestCheckpoint(dir));
  if (latest.found) {
    Result<PersistentRoundState> decoded =
        DecodeRoundState(latest.checkpoint.payload);
    if (decoded.ok()) {
      out.has_snapshot = true;
      out.snapshot = std::move(decoded).value();
      out.skipped_corrupt_checkpoints = latest.checkpoint.skipped_corrupt;
    } else {
      // The container CRC passed but the payload didn't parse — treat it
      // like any other corrupt checkpoint: degrade loudly to nothing
      // (the caller restarts from round 1; determinism makes that safe).
      DPBR_LOG_STREAM(Warning) << "discarding undecodable checkpoint "
                        << latest.checkpoint.path << ": "
                        << decoded.status().ToString();
      out.skipped_corrupt_checkpoints =
          latest.checkpoint.skipped_corrupt + 1;
    }
  }

  DPBR_ASSIGN_OR_RETURN(durability::WalReadResult wal,
                        durability::ReadWal(WalPath(dir)));
  out.wal_clean = wal.clean;
  out.wal_damage = wal.damage;
  if (!wal.clean) {
    DPBR_LOG_STREAM(Warning) << "WAL tail damaged (" << wal.damage
                      << "); trusting the " << wal.records.size()
                      << "-record valid prefix";
  }
  for (const std::string& record : wal.records) {
    Result<RoundCommitRecord> rec = RoundCommitRecord::Decode(record);
    if (!rec.ok()) {
      // A framed-but-unparseable record means the writer and reader
      // disagree about the schema; stop trusting the log here, exactly
      // like a CRC-level tail tear.
      out.wal_clean = false;
      out.wal_damage = rec.status().message();
      DPBR_LOG_STREAM(Warning) << "WAL record undecodable ("
                        << rec.status().ToString()
                        << "); ignoring the rest of the log";
      break;
    }
    out.wal_records.push_back(rec.value());
  }
  return out;
}

}  // namespace fl
}  // namespace dpbr
