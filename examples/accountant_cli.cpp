// DP accountant command line — the in-repo replacement for the
// TensorFlow-Privacy noise search the paper relies on (Theorem 3).
//
//   # forward: epsilon from a noise multiplier
//   ./accountant_cli --q=0.0053 --sigma=4.0 --steps=1500 --delta=1.4e-4
//   # inverse: noise multiplier for a target epsilon
//   ./accountant_cli --q=0.0053 --eps=0.125 --steps=1500 --delta=1.4e-4
//   # protocol view: per-worker dataset/batch/epochs instead of q/steps
//   ./accountant_cli --dataset_size=3000 --batch=16 --epochs=8 --eps=2
//   # audit view: budget actually spent by a durable run's checkpoints
//   ./accountant_cli --from_checkpoint=/path/to/checkpoint_dir
//
// All q/steps forms take --qc=<rate> for per-round Poisson client
// subsampling (default 1 = every client every round); see
// docs/privacy_accounting.md for the worked example.
//
// --from_checkpoint reads the directory a durable trainer run writes
// (docs/durability.md): the newest usable snapshot's spent ledger plus
// any WAL commit records for rounds after that snapshot, so the ε(δ)
// actually consumed is auditable even when the run was killed between
// snapshots.

#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "dp/privacy_params.h"
#include "dp/rdp_accountant.h"
#include "fl/round_state.h"
#include "strict_flags.h"

namespace {

// Prints the spent-budget state of a durable run's checkpoint directory.
int AuditCheckpointDir(const std::string& dir) {
  auto state = dpbr::fl::LoadDurableState(dir);
  if (!state.ok()) {
    std::cerr << state.status().ToString() << "\n";
    return 1;
  }
  const dpbr::fl::DurableRunState& s = state.value();
  if (!s.has_snapshot && s.wal_records.empty()) {
    std::printf("no durable state in %s (nothing spent)\n", dir.c_str());
    return 0;
  }

  dpbr::dp::SpentLedger ledger;
  int64_t snapshot_round = 0;
  if (s.has_snapshot) {
    ledger = s.snapshot.ledger;
    snapshot_round = s.snapshot.completed_round;
    std::printf("snapshot: round %lld (%s)\n",
                static_cast<long long>(snapshot_round),
                s.snapshot.fingerprint.ToString().c_str());
    if (s.skipped_corrupt_checkpoints > 0) {
      std::printf("WARNING: skipped %d corrupt checkpoint file(s)\n",
                  s.skipped_corrupt_checkpoints);
    }
  } else {
    std::printf("no usable snapshot; accounting from WAL records only\n");
  }

  // Rounds the WAL committed beyond the snapshot: charge them on top of
  // the snapshot's ledger so a crash between snapshots still accounts
  // every round that actually ran.
  int64_t replayed = 0;
  for (const dpbr::fl::RoundCommitRecord& rec : s.wal_records) {
    if (rec.round > snapshot_round) {
      ledger.ChargeRound(rec.round);
      ++replayed;
    }
  }
  if (replayed > 0) {
    std::printf("WAL: %lld committed round(s) beyond the snapshot\n",
                static_cast<long long>(replayed));
  }
  if (!s.wal_clean) {
    std::printf("WARNING: WAL tail damaged (%s); later rounds, if any, "
                "are unaccounted\n",
                s.wal_damage.c_str());
  }

  std::printf("spent: %s\n", ledger.ToString().c_str());
  if (!ledger.dp_enabled()) {
    std::printf("DP disabled for this run (sigma = 0): eps is unbounded\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using dpbr::examples::DoubleFlag;
  using dpbr::examples::IntFlag;
  dpbr::Flags flags = dpbr::Flags::Parse(argc, argv);

  if (flags.Has("from_checkpoint")) {
    return AuditCheckpointDir(flags.GetString("from_checkpoint", ""));
  }

  if (flags.Has("dataset_size")) {
    dpbr::dp::PrivacySpec spec;
    spec.dataset_size = IntFlag(flags, "dataset_size", 1000);
    spec.batch_size = IntFlag(flags, "batch", 16);
    spec.epochs = IntFlag(flags, "epochs", 8);
    spec.epsilon = DoubleFlag(flags, "eps", 1.0);
    spec.delta = DoubleFlag(flags, "delta", -1.0);
    spec.client_sampling_rate = DoubleFlag(flags, "qc", 1.0);
    auto params = dpbr::dp::CalibratePrivacy(spec);
    if (!params.ok()) {
      std::cerr << params.status().ToString() << "\n";
      return 1;
    }
    std::printf("%s\n", params.value().ToString().c_str());
    std::printf(
        "Algorithm 1 noise: add N(0, sigma^2 I) with sigma=%.6f to the "
        "normalized-gradient sum; per-coordinate upload std = %.6f\n",
        params.value().sigma, params.value().sigma_upload);
    return 0;
  }

  double q = DoubleFlag(flags, "q", 0.016);
  double qc = DoubleFlag(flags, "qc", 1.0);
  int steps = IntFlag(flags, "steps", 500);
  double delta = DoubleFlag(flags, "delta", 1e-4);
  if (!(qc >= 0.0 && qc <= 1.0)) {
    std::cerr << dpbr::Status::InvalidArgument(
                     "client sampling rate q_client must lie in [0, 1]")
                     .ToString()
              << "\n";
    return 1;
  }

  if (flags.Has("sigma")) {
    double sigma = DoubleFlag(flags, "sigma", 1.0);
    auto eps = dpbr::dp::ComputeEpsilon(qc * q, sigma, steps, delta);
    if (!eps.ok()) {
      std::cerr << eps.status().ToString() << "\n";
      return 1;
    }
    std::printf("qc=%g q=%g sigma=%g steps=%d delta=%g  =>  eps=%.6f\n", qc,
                q, sigma, steps, delta, eps.value());
    return 0;
  }

  double eps = DoubleFlag(flags, "eps", 1.0);
  auto sigma = dpbr::dp::NoiseMultiplierFor(qc * q, steps, eps, delta);
  if (!sigma.ok()) {
    std::cerr << sigma.status().ToString() << "\n";
    return 1;
  }
  std::printf(
      "qc=%g q=%g eps=%g steps=%d delta=%g  =>  noise multiplier=%.6f\n", qc,
      q, eps, steps, delta, sigma.value());
  return 0;
}
