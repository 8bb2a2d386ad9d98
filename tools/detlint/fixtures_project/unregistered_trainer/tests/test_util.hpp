// Mini-project fixture: the trainer table for unregistered_trainer holds
// both trainers, so only the resume-matrix gap is left to catch.
#include "algo/trainers.hpp"

int main() {
  return fixture::train_alpha(3) + fixture::train_beta(3) == 0 ? 1 : 0;
}
