#!/usr/bin/env python3
"""Seeded scale-corpus generator for the pipeline benchmark.

Writes a tweet archive, account annotations, follow lists and a
``meta.json`` describing what was injected.  The shape:

  - two camps of regular users; 90% of interactions stay inside the
    author's camp and the rest go to 65 political (30 Left, 30 Right,
    5 Center) and 40 media accounts;
  - the four tweet kinds are equally likely; every on-topic tweet carries
    a hashtag from the shipped default rule set that is active all year;
  - a small share of noise: off-topic Greek tweets (no rule matches) and
    non-``el`` tweets (dropped by language);
  - a fixed number of lines truncated mid-object, which the loader must
    skip and count as malformed.  No type-confused values are injected.

The same arguments always produce byte-identical files.

    python3 perfbench/gencorpus.py --tweets 10000 --users 2800 --days 30 \\
        --seed 1 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

N_POLITICAL = {"Left": 30, "Right": 30, "Center": 5}
N_MEDIA = 40
INTRA_CAMP = 0.9
OFF_TOPIC = 0.03
NON_EL = 0.02
NEUTRAL_USERS = 0.1
TRUNCATED_LINES = 25
DEFAULT_START = date(2022, 8, 1)

# hashtag-mode rules of the default rule set with no activation window
RULE_HASHTAGS = ("υποκλοπες", "υποκλοπές", "παρακολουθήσεις", "ypoklopes",
                 "watergate", "predator", "predatorgate", "pega", "spyware")
# keyword-mode rules; any of them in the text also matches
RULE_KEYWORDS = ("υποκλοπές", "υποκλοπη", "greekwatergate", "predator")
# none of these contains a keyword rule term, so off-topic text never matches
WORDS = (
    "κυβέρνηση αντιπολίτευση βουλή εξεταστική επιτροπή σκάνδαλο ΕΥΠ "
    "παρακολούθηση δημοσιογράφος τηλέφωνο λογισμικό κατασκοπεία πρωθυπουργός "
    "υπουργός εκλογές δημοκρατία θεσμοί διαφάνεια ευθύνη παραίτηση απάντηση "
    "ερώτηση συνέντευξη ανακοίνωση καταγγελία δικαιοσύνη εισαγγελέας έρευνα "
    "αποκάλυψη έγγραφα μάρτυρας κόμμα ηγεσία αρχηγός πολίτες κοινωνία "
    "ελευθερία τύπου μέσα ενημέρωσης ειδήσεις σήμερα αύριο χθες εβδομάδα "
    "συζήτηση ψηφοφορία πρόταση μομφής νόμος τροπολογία διάταξη απόρρητο "
    "επικοινωνιών αρχή προστασίας δεδομένων ευρωπαϊκό κοινοβούλιο επιτροπή "
    "πόρισμα ακρόαση κατάθεση στοιχεία αριθμοί λίστα ονόματα στόχοι "
    "επιχειρηματίες στρατιωτικοί πολιτικοί εταιρεία συμβόλαιο εξαγωγή άδεια "
    "σιωπή ψέματα αλήθεια ερωτήματα θέση δήλωση εκπρόσωπος γραφείο "
    "μήνυμα συνάντηση διαδήλωση πλατεία σύνταγμα κανάλι εκπομπή άρθρο"
).split()
OFF_TOPIC_WORDS = ("καλημέρα καιρός ήλιος βροχή θάλασσα καφές ποδόσφαιρο "
                   "αγώνας ομάδα γκολ μουσική συναυλία ταινία βιβλίο φαγητό "
                   "διακοπές παραλία βουνό ταξίδι φίλοι οικογένεια").split()
ENGLISH_WORDS = ("news today government phone spyware scandal report "
                 "minister election press freedom week vote").split()


def _weights_cdf(n: int) -> list[float]:
    """Cumulative heavy-tailed activity weights, rank r ~ 1/sqrt(r+20)."""
    total, cdf = 0.0, []
    for r in range(n):
        total += 1.0 / (r + 20) ** 0.5
        cdf.append(total)
    return cdf


def generate(tweets: int, users: int, days: int, seed: int, out: Path,
             start: date = DEFAULT_START,
             truncated: int = TRUNCATED_LINES) -> dict:
    """Write the corpus into out/ and return its metadata."""
    if tweets < 1 or users < 4 or days < 1 or not 0 <= truncated <= tweets:
        raise ValueError("need tweets >= 1, users >= 4, days >= 1 and "
                         "0 <= truncated <= tweets")
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)

    political = {side: [f"pol_{side[0].lower()}{i:02d}" for i in range(k)]
                 for side, k in N_POLITICAL.items()}
    media = [f"media{i:02d}" for i in range(N_MEDIA)]
    connectors = [u for ids in political.values() for u in ids] + media

    regular = [f"u{i:06d}" for i in range(users)]
    camp = {u: rng.choice(("Left", "Right")) for u in regular}
    by_camp = {side: [u for u in regular if camp[u] == side]
               for side in ("Left", "Right")}
    other = {"Left": "Right", "Right": "Left"}

    with (out / "annotations.csv").open("w", encoding="utf-8") as fh:
        fh.write("user_id,category,side\n")
        for side, ids in political.items():
            for uid in ids:
                fh.write(f"{uid},Political,{side}\n")
        for uid in media:
            fh.write(f"{uid},MediaJournalist,\n")

    with (out / "follows.csv").open("w", encoding="utf-8") as fh:
        fh.write("follower_id,followed_political_id\n")
        for uid in regular:
            if rng.random() < NEUTRAL_USERS:
                continue
            followed = set()
            for _ in range(rng.randint(1, 4)):
                r = rng.random()
                side = (camp[uid] if r < 0.8 else
                        other[camp[uid]] if r < 0.95 else "Center")
                followed.add(rng.choice(political[side]))
            for target in sorted(followed):
                fh.write(f"{uid},{target}\n")

    # a shuffled rank order decouples activity from user id and camp
    ranked = regular[:]
    rng.shuffle(ranked)
    cdf = _weights_cdf(len(ranked))

    def author() -> str:
        if rng.random() < 0.05:
            return rng.choice(connectors)
        return ranked[bisect.bisect_left(cdf, rng.random() * cdf[-1])]

    def target(uid: str) -> str:
        side = camp.get(uid)
        if side is not None and rng.random() < INTRA_CAMP:
            while True:
                ref = rng.choice(by_camp[side])
                if ref != uid:
                    return ref
        return rng.choice(connectors)

    t0 = datetime.combine(start, datetime.min.time(), tzinfo=timezone.utc)
    stamps = sorted(rng.randrange(days * 86400) for _ in range(tweets))
    cut = set(rng.sample(range(tweets), truncated))
    with (out / "tweets.jsonl").open("w", encoding="utf-8") as fh:
        for i, offset in enumerate(stamps):
            uid = author()
            kind = rng.choice(("original", "retweet", "quote", "reply"))
            refs = []
            if kind != "original":
                refs.append(target(uid))
                if rng.random() < 0.08:
                    ref = target(uid)
                    if ref not in refs:
                        refs.append(ref)
            r = rng.random()
            lang, hashtags = "el", []
            if r < NON_EL:
                lang = "en"
                words = rng.choices(ENGLISH_WORDS, k=rng.randint(3, 9))
            elif r < NON_EL + OFF_TOPIC:
                words = rng.choices(OFF_TOPIC_WORDS, k=rng.randint(3, 9))
            else:
                words = rng.choices(WORDS, k=rng.randint(3, 9))
                if rng.random() < 0.5:
                    words.insert(rng.randrange(len(words) + 1),
                                 rng.choice(RULE_KEYWORDS))
                hashtags = rng.sample(RULE_HASHTAGS, k=rng.randint(1, 2))
            text = " ".join(words + [f"#{h}" for h in hashtags])
            ts = t0 + timedelta(seconds=offset)
            obj = {
                "tweet_id": f"t{i:08d}",
                "author_id": uid,
                "timestamp": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "text": text,
                "lang": lang,
                "kind": kind,
                "hashtags": hashtags,
                "urls": ([f"https://news.example/{rng.randrange(5000)}"]
                         if rng.random() < 0.3 else []),
                "media": ([{"kind": rng.choice(("image", "video")),
                            "url": f"https://img.example/{rng.randrange(99)}"}]
                          if rng.random() < 0.15 else []),
                "referenced_user_ids": refs,
                "referenced_tweet_id": (f"t{rng.randrange(i):08d}"
                                        if refs and i else None),
                "like_count": rng.randrange(200),
                "retweet_count": rng.randrange(80),
                "reply_count": rng.randrange(30),
            }
            line = json.dumps(obj, ensure_ascii=False, sort_keys=True)
            if i in cut:
                # a prefix that stops before the closing brace never parses
                line = line[:rng.randrange(1, len(line) - 1)]
            fh.write(line + "\n")

    meta = {"tweets": tweets, "users": users, "days": days, "seed": seed,
            "start": start.isoformat(),
            "end": (start + timedelta(days=days - 1)).isoformat(),
            "truncated_lines": truncated}
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                   encoding="utf-8")
    return meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tweets", type=int, required=True)
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=date.fromisoformat,
                        default=DEFAULT_START)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    meta = generate(args.tweets, args.users, args.days, args.seed, args.out,
                    args.start)
    print(json.dumps(meta))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
