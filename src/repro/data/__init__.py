"""Password data pipeline.

Implements everything Sec. IV-D describes around data handling:

* :mod:`repro.data.alphabet` -- the character set and index mapping,
* :mod:`repro.data.encoding` -- password <-> normalized numeric feature
  vectors ("we convert the passwords in feature vectors that contain their
  numerical representation and then we normalize by the size of the
  alphabet"), including the uniform dequantization needed to train a
  continuous flow on discrete symbols,
* :mod:`repro.data.synthetic` -- a seeded generator producing a RockYou-like
  corpus (substitution for the real leak, which we do not ship; see
  DESIGN.md),
* :mod:`repro.data.rockyou` -- loader for a real ``rockyou.txt`` when the
  user provides one,
* :mod:`repro.data.dataset` -- the 80/20 split with test-set cleaning
  (dedup + removal of the train intersection) exactly as the paper does,
* :mod:`repro.data.mangling` -- word-mangling rules shared by the synthetic
  generator and the rule-based baseline.

Names load their submodule on first use (:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".alphabet": ["Alphabet", "default_alphabet"],
        ".encoding": ["PasswordEncoder"],
        ".synthetic": ["SyntheticConfig", "SyntheticRockYou"],
        ".rockyou": ["load_password_file"],
        ".dataset": ["PasswordDataset", "train_test_split", "clean_test_set"],
    },
)
