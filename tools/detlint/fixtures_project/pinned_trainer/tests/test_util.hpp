// Mini-project fixture: the trainer table for pinned_trainer.
#include "algo/trainers.hpp"

int main() {
  return fixture::train_alpha(3) == 7 && fixture::train_beta(3) == 9 ? 0 : 1;
}
