// Mini-project fixture: the kill-and-resume matrix for unpinned_trainer
// covers both trainers.
#include "algo/trainers.hpp"

int main() {
  return fixture::train_alpha(3) == fixture::train_beta(3) ? 0 : 1;
}
