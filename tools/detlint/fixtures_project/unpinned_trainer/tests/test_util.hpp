// Mini-project fixture: the trainer table for unpinned_trainer. Only
// train_alpha has a row; train_beta is deliberately missing so the
// contract check has something to catch.
#include "algo/trainers.hpp"

int main() {
  return fixture::train_alpha(3) == 7 ? 0 : 1;
}
