#include "apps/jacobi2d.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace ehpc::apps {

using charm::Chare;
using charm::Pup;
using charm::ReduceOp;
using charm::Runtime;

JacobiBlock::Dir JacobiBlock::opposite(Dir d) {
  switch (d) {
    case kLeft: return kRight;
    case kRight: return kLeft;
    case kUp: return kDown;
    case kDown: return kUp;
  }
  return kLeft;
}

JacobiBlock::JacobiBlock(int real_w, int real_h, int num_neighbors,
                         bool top_boundary)
    : real_w_(real_w), real_h_(real_h), num_neighbors_(num_neighbors) {
  EHPC_EXPECTS(real_w_ >= 1 && real_h_ >= 1);
  grid_.assign(static_cast<std::size_t>((real_w_ + 2) * (real_h_ + 2)), 0.0);
  next_ = grid_;
  if (top_boundary) {
    // Fixed hot boundary drives the steady-state heat solution.
    for (int x = 0; x < real_w_ + 2; ++x) at(x, 0) = 1.0;
  }
}

double& JacobiBlock::at(int gx, int gy) {
  return grid_[static_cast<std::size_t>(gy * (real_w_ + 2) + gx)];
}

double JacobiBlock::at(int gx, int gy) const {
  return grid_[static_cast<std::size_t>(gy * (real_w_ + 2) + gx)];
}

double JacobiBlock::cell(int x, int y) const { return at(x + 1, y + 1); }

void JacobiBlock::pup(Pup& p) {
  p | real_w_;
  p | real_h_;
  p | num_neighbors_;
  p | iteration_;
  p | recv_count_;
  p | started_;
  p | grid_;
  if (p.unpacking()) next_.assign(grid_.size(), 0.0);
}

std::vector<double> JacobiBlock::strip(Dir d) const {
  std::vector<double> out;
  switch (d) {
    case kLeft:
      out.reserve(static_cast<std::size_t>(real_h_));
      for (int y = 1; y <= real_h_; ++y) out.push_back(at(1, y));
      break;
    case kRight:
      out.reserve(static_cast<std::size_t>(real_h_));
      for (int y = 1; y <= real_h_; ++y) out.push_back(at(real_w_, y));
      break;
    case kUp:
      out.reserve(static_cast<std::size_t>(real_w_));
      for (int x = 1; x <= real_w_; ++x) out.push_back(at(x, 1));
      break;
    case kDown:
      out.reserve(static_cast<std::size_t>(real_w_));
      for (int x = 1; x <= real_w_; ++x) out.push_back(at(x, real_h_));
      break;
  }
  return out;
}

void JacobiBlock::apply_ghost(Dir d, const std::vector<double>& values) {
  switch (d) {
    case kLeft:
      EHPC_EXPECTS(values.size() == static_cast<std::size_t>(real_h_));
      for (int y = 1; y <= real_h_; ++y) at(0, y) = values[static_cast<std::size_t>(y - 1)];
      break;
    case kRight:
      EHPC_EXPECTS(values.size() == static_cast<std::size_t>(real_h_));
      for (int y = 1; y <= real_h_; ++y)
        at(real_w_ + 1, y) = values[static_cast<std::size_t>(y - 1)];
      break;
    case kUp:
      EHPC_EXPECTS(values.size() == static_cast<std::size_t>(real_w_));
      for (int x = 1; x <= real_w_; ++x) at(x, 0) = values[static_cast<std::size_t>(x - 1)];
      break;
    case kDown:
      EHPC_EXPECTS(values.size() == static_cast<std::size_t>(real_w_));
      for (int x = 1; x <= real_w_; ++x)
        at(x, real_h_ + 1) = values[static_cast<std::size_t>(x - 1)];
      break;
  }
  ++recv_count_;
}

double JacobiBlock::compute() {
  double residual = 0.0;
  for (int y = 1; y <= real_h_; ++y) {
    for (int x = 1; x <= real_w_; ++x) {
      const double v =
          0.25 * (at(x - 1, y) + at(x + 1, y) + at(x, y - 1) + at(x, y + 1));
      next_[static_cast<std::size_t>(y * (real_w_ + 2) + x)] = v;
      residual = std::max(residual, std::abs(v - at(x, y)));
    }
  }
  // Interior swap only; ghost and boundary rows stay as-is.
  for (int y = 1; y <= real_h_; ++y) {
    for (int x = 1; x <= real_w_; ++x) {
      at(x, y) = next_[static_cast<std::size_t>(y * (real_w_ + 2) + x)];
    }
  }
  advance();
  return residual;
}

void JacobiBlock::advance() {
  ++iteration_;
  recv_count_ = 0;
  started_ = false;
}

Jacobi2D::Jacobi2D(Runtime& rt, JacobiConfig config)
    : rt_(rt), config_(config) {
  EHPC_EXPECTS(config_.grid_n > 0);
  EHPC_EXPECTS(config_.blocks_x > 0 && config_.blocks_y > 0);
  EHPC_EXPECTS(config_.grid_n % config_.blocks_x == 0);
  EHPC_EXPECTS(config_.grid_n % config_.blocks_y == 0);
  EHPC_EXPECTS(config_.max_real_block >= 4);

  model_block_w_ = config_.grid_n / config_.blocks_x;
  model_block_h_ = config_.grid_n / config_.blocks_y;
  real_block_w_ = std::min(model_block_w_, config_.max_real_block);
  real_block_h_ = std::min(model_block_h_, config_.max_real_block);
  flops_per_block_ = config_.flops_per_cell *
                     static_cast<double>(model_block_w_) *
                     static_cast<double>(model_block_h_);
  strip_bytes_x_ = static_cast<std::size_t>(model_block_w_) * sizeof(double);
  strip_bytes_y_ = static_cast<std::size_t>(model_block_h_) * sizeof(double);

  const int bx_count = config_.blocks_x;
  const int n_blocks = config_.blocks_x * config_.blocks_y;
  array_ = rt_.create_array(
      "jacobi", n_blocks, [this, bx_count](charm::ElementId e) {
        const int bx = e % bx_count;
        const int by = e / bx_count;
        const bool top = (by == 0);
        return std::make_unique<JacobiBlock>(real_block_w_, real_block_h_,
                                             neighbor_count(bx, by), top);
      });

  // Checkpoint/migration costs are charged at model scale.
  const double model_block_bytes = static_cast<double>(model_block_w_) *
                                   static_cast<double>(model_block_h_) *
                                   sizeof(double);
  const double real_block_bytes =
      static_cast<double>((real_block_w_ + 2) * (real_block_h_ + 2)) *
      sizeof(double);
  rt_.set_bytes_scale(array_, std::max(1.0, model_block_bytes / real_block_bytes));

  driver_ = std::make_unique<IterationDriver>(
      rt_, array_, config_.max_iterations, [this](int iter) { kick(iter); });
}

int Jacobi2D::neighbor_count(int bx, int by) const {
  int count = 0;
  if (bx > 0) ++count;
  if (bx + 1 < config_.blocks_x) ++count;
  if (by > 0) ++count;
  if (by + 1 < config_.blocks_y) ++count;
  return count;
}

double Jacobi2D::model_bytes() const {
  return static_cast<double>(config_.grid_n) *
         static_cast<double>(config_.grid_n) * sizeof(double);
}

void Jacobi2D::maybe_compute(JacobiBlock& block, Runtime& rt) {
  if (!block.ready_to_compute()) return;
  rt.charge_flops(flops_per_block_);
  double res = 0.0;
  if (config_.skeleton) {
    block.advance();
  } else {
    res = block.compute();
  }
  rt.contribute(array_, res, ReduceOp::kMax);
}

void Jacobi2D::send_strip(int from_bx, int from_by, JacobiBlock::Dir d) {
  int to_bx = from_bx;
  int to_by = from_by;
  switch (d) {
    case JacobiBlock::kLeft: --to_bx; break;
    case JacobiBlock::kRight: ++to_bx; break;
    case JacobiBlock::kUp: --to_by; break;
    case JacobiBlock::kDown: ++to_by; break;
  }
  if (to_bx < 0 || to_bx >= config_.blocks_x || to_by < 0 ||
      to_by >= config_.blocks_y) {
    return;
  }
  std::vector<double> data;
  if (!config_.skeleton) {
    data = static_cast<const JacobiBlock&>(
               rt_.element(array_, block_index(from_bx, from_by)))
               .strip(d);
  }
  const std::size_t bytes =
      (d == JacobiBlock::kUp || d == JacobiBlock::kDown) ? strip_bytes_x_
                                                         : strip_bytes_y_;
  const JacobiBlock::Dir recv_dir = JacobiBlock::opposite(d);
  rt_.send(array_, block_index(to_bx, to_by), bytes,
           [this, recv_dir, data = std::move(data)](Chare& c, Runtime& rt) {
             auto& block = static_cast<JacobiBlock&>(c);
             if (config_.skeleton) {
               block.count_ghost();
             } else {
               block.apply_ghost(recv_dir, data);
             }
             maybe_compute(block, rt);
           });
}

void Jacobi2D::kick(int /*iteration*/) {
  // "Start iteration": every block publishes its boundary strips, then
  // computes once all its ghosts arrive. A block never computes before it
  // has published (started_ gate), so neighbours always read last
  // iteration's boundary.
  for (int by = 0; by < config_.blocks_y; ++by) {
    for (int bx = 0; bx < config_.blocks_x; ++bx) {
      rt_.send(array_, block_index(bx, by), /*bytes=*/16,
               [this, bx, by](Chare& c, Runtime& rt) {
                 auto& block = static_cast<JacobiBlock&>(c);
                 block.mark_started();
                 send_strip(bx, by, JacobiBlock::kLeft);
                 send_strip(bx, by, JacobiBlock::kRight);
                 send_strip(bx, by, JacobiBlock::kUp);
                 send_strip(bx, by, JacobiBlock::kDown);
                 maybe_compute(block, rt);
               });
    }
  }
}

}  // namespace ehpc::apps
