/// \file executor_reference.hpp
/// \brief Test oracle: the pulse executor's superoperators built the
///        direct way, in the complex standard (column-stacking) basis.
///
/// For every sample the reference rebuilds the full Lindbladian from the
/// Hamiltonian and the collapse operators (the drive-noise collapse
/// `sqrt(drive_amp_noise) H_drive` included), exponentiates `dt L` with the
/// complex `linalg::expm`, and multiplies the propagators in sample order.
/// It keeps no sample dedupe, no task pool, no affine split of the
/// generator and no real operator basis, so it checks the executor's
/// real-basis build through a different arithmetic route.

#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "device/backend_config.hpp"
#include "linalg/matrix.hpp"
#include "pulse/schedule.hpp"

namespace qoc::oracle {

using linalg::Mat;
using Samples = std::vector<std::complex<double>>;

/// Superoperator of a sample stream on `qubit`'s drive channel
/// (levels^2 x levels^2).
Mat reference_waveform_superop_1q(const device::BackendConfig& cfg, const Samples& samples,
                                  std::size_t qubit);

/// Superoperator of simultaneous D0, D1 and U0 streams on the qubit pair
/// (16 x 16); streams are zero-padded to a common length.
Mat reference_layer_superop_2q(const device::BackendConfig& cfg, const Samples& d0,
                               const Samples& d1, const Samples& u0);

/// Free evolution for `duration_dt` samples, one exponential of the whole
/// interval.
Mat reference_idle_superop_1q(const device::BackendConfig& cfg, std::size_t duration_dt,
                              std::size_t qubit);
Mat reference_idle_superop_2q(const device::BackendConfig& cfg, std::size_t duration_dt);

/// Gate schedules with their virtual-Z frames closed: the waveform or layer
/// superoperator, then e^{-i phi n} per drive channel with a net
/// ShiftPhase phi.
Mat reference_schedule_superop_1q(const device::BackendConfig& cfg,
                                  const pulse::Schedule& sched, std::size_t qubit);
Mat reference_schedule_superop_2q(const device::BackendConfig& cfg,
                                  const pulse::Schedule& sched);

}  // namespace qoc::oracle
