#include "lp/lp_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace savg {

int LpModel::AddVariable(double lower, double upper, double obj) {
  obj_.push_back(obj);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return static_cast<int>(obj_.size()) - 1;
}

int LpModel::AddRow(RowType type, double rhs, std::vector<LpTerm> terms) {
  rows_.push_back(LpRow{type, rhs, std::move(terms)});
  return static_cast<int>(rows_.size()) - 1;
}

double LpModel::ObjectiveValue(const std::vector<double>& x) const {
  double acc = 0.0;
  for (size_t j = 0; j < obj_.size(); ++j) acc += obj_[j] * x[j];
  return acc;
}

double LpModel::MaxViolation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (size_t j = 0; j < obj_.size(); ++j) {
    worst = std::max(worst, lower_[j] - x[j]);
    if (std::isfinite(upper_[j])) worst = std::max(worst, x[j] - upper_[j]);
  }
  for (const LpRow& row : rows_) {
    double lhs = 0.0;
    for (const LpTerm& t : row.terms) lhs += t.coef * x[t.var];
    switch (row.type) {
      case RowType::kLessEqual:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case RowType::kGreaterEqual:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case RowType::kEqual:
        worst = std::max(worst, std::abs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

std::string LpModel::DebugString() const {
  std::ostringstream os;
  os << (maximize_ ? "maximize" : "minimize") << " " << num_vars()
     << " vars, " << num_rows() << " rows";
  return os.str();
}

}  // namespace savg
