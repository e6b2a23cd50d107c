import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import DATA_DIR, reviews_to_csv
from contexttrust.dataset import (
    REVIEW_HEADER,
    ContextRatings,
    Review,
    build_profiles,
    filter_profiles,
    load_reviews,
    parse_reviews,
)
from contexttrust.errors import DomainError, MissingContextError, RowError, SchemaError

HEADER = "Context,Rate,Date,Description,Link\n"


def make_reviews(context, rates):
    return [Review(context, r, "1-Jan-10", "text", "https://x.test/1") for r in rates]


# --- parsing -----------------------------------------------------------------

def test_parse_bundled_laptop_file():
    reviews = load_reviews(DATA_DIR / "laptop_reviews.csv", seller="acme")
    assert len(reviews) == 10
    assert all(type(r) is Review for r in reviews)
    assert [r.rate for r in reviews] == [4, 5, 1, 3, 1, 5, 1, 1, 4, 4]
    assert all(r.context == "Laptop" for r in reviews)
    assert reviews[0].date == "12-Aug-09"  # kept verbatim
    assert reviews[0].link.startswith("https://")


def test_parse_header_only_gives_empty_list():
    assert parse_reviews(HEADER) == []
    assert parse_reviews(HEADER.rstrip("\n")) == []  # one line of text, not a file name


def test_parse_rejects_wrong_header():
    with pytest.raises(SchemaError, match="header"):
        parse_reviews("Context,Rate,When,Description,Link\nLaptop,4,x,y,z\n")


def test_parse_rejects_missing_column():
    with pytest.raises(SchemaError, match="line 2"):
        parse_reviews(HEADER + "Laptop,4,x,y\n")


def test_parse_rejects_out_of_range_rate():
    with pytest.raises(RowError, match="line 3"):
        parse_reviews(HEADER + "Laptop,4,x,y,z\nLaptop,7,x,y,z\n")


def test_parse_names_a_fault_after_a_two_line_field_by_the_line_its_row_starts_on():
    text = HEADER + 'Laptop,4,x,"two\nlines",z\nLaptop,9,x,y,z\n'
    with pytest.raises(RowError, match=r"^<string>: line 4: rate 9 outside 1\.\.5$"):
        parse_reviews(text)


def test_parse_rejects_non_integer_rate():
    with pytest.raises(RowError, match="not an integer"):
        parse_reviews(HEADER + "Laptop,4.5,x,y,z\n")


def test_parse_rejects_empty_context():
    with pytest.raises(RowError, match="empty context"):
        parse_reviews(HEADER + ",4,x,y,z\n")


def test_parse_rejects_empty_text():
    with pytest.raises(SchemaError, match="file is empty"):
        parse_reviews("")


def test_parse_skips_a_blank_row():
    reviews = parse_reviews(HEADER + "Laptop,4,x,y,z\n\nBooks,2,x,y,z\n")
    assert [(r.context, r.rate) for r in reviews] == [("Laptop", 4), ("Books", 2)]


def test_parse_strips_the_context():
    # A pair names the context stripped, so "Laptop " must not be a context of its own.
    reviews = parse_reviews(HEADER + "Laptop ,5,x,y,z\n Laptop,3,x,y,z\n")
    assert [r.context for r in reviews] == ["Laptop", "Laptop"]
    profile = build_profiles({"s": reviews})["s"]
    assert profile.contexts == {"Laptop": ContextRatings(count=2, aggregate=4.0)}


def test_parse_keeps_quoted_commas():
    text = HEADER + 'Laptop,4,1-Jan-10,"fast, quiet, cheap",https://x.test/9\n'
    (review,) = parse_reviews(text)
    assert review.description == "fast, quiet, cheap"


@pytest.mark.parametrize("field", ["x" * 200_000, "a\0b"], ids=["oversized", "nul"])
def test_parse_refuses_what_csv_cannot_read_by_its_line(field):
    text = HEADER + f"Laptop,4,x,y,z\nLaptop,4,x,{field},z\n"
    with pytest.raises(SchemaError, match=r"^reviews\.csv \(seller acme\): line 3: "):
        parse_reviews(text, seller="acme", source="reviews.csv")


def test_error_messages_carry_seller():
    with pytest.raises(RowError, match="acme"):
        parse_reviews(HEADER + "Laptop,9,x,y,z\n", seller="acme")


# --- profiles ------------------------------------------------------------------

def test_laptop_aggregate_is_mean():
    reviews = load_reviews(DATA_DIR / "laptop_reviews.csv")
    profiles = build_profiles({"acme": reviews})
    assert profiles["acme"].aggregate("Laptop") == pytest.approx(2.9)


def test_single_review_aggregate():
    profiles = build_profiles({"s": make_reviews("Books", [5])})
    assert profiles["s"].aggregate("Books") == 5.0


def test_grouping_by_context():
    reviews = make_reviews("Books", [4, 2]) + make_reviews("Toys", [3, 5])
    profile = build_profiles({"s": reviews})["s"]
    assert set(profile.contexts) == {"Books", "Toys"}
    assert profile.aggregate("Books") == 3.0
    assert profile.aggregate("Toys") == 4.0


def test_context_ratings_keep_count_and_mean_only():
    reviews = make_reviews("Books", [4, 2, 5]) + make_reviews("Toys", [3])
    profile = build_profiles({"s": reviews})["s"]
    assert profile.contexts["Books"] == ContextRatings(count=3, aggregate=11 / 3)
    assert profile.contexts["Toys"] == ContextRatings(count=1, aggregate=3.0)
    assert profile.rates == {"Books": 11 / 3, "Toys": 3.0}


def test_filter_keeps_context_at_exact_threshold():
    profiles = make_profiles({"s": (5, 4)})
    assert set(filter_profiles(profiles, 1, 5)["s"].contexts) == {"ctx0"}


def test_missing_context_is_reported():
    profile = build_profiles({"s": make_reviews("Books", [4])})["s"]
    with pytest.raises(MissingContextError, match="'Games'"):
        profile.aggregate("Games")


def test_empty_input_builds_empty_profiles():
    assert build_profiles({}) == {}


# --- filtering -------------------------------------------------------------------

def make_profiles(sizes_by_seller):
    return build_profiles(
        {
            seller: [
                review
                for i, size in enumerate(sizes)
                for review in make_reviews(f"ctx{i}", [3] * size)
            ]
            for seller, sizes in sizes_by_seller.items()
        }
    )


def test_filter_drops_thin_contexts():
    profiles = make_profiles({"s": (30, 30, 5)})
    kept = filter_profiles(profiles, min_contexts=2, min_ratings=30)
    assert set(kept["s"].contexts) == {"ctx0", "ctx1"}


def test_filter_drops_single_context_sellers():
    profiles = make_profiles({"solo": (40,), "duo": (40, 40)})
    kept = filter_profiles(profiles, min_contexts=2, min_ratings=30)
    assert set(kept) == {"duo"}


def test_filter_identity_thresholds():
    profiles = make_profiles({"a": (1, 2), "b": (3,)})
    assert filter_profiles(profiles, 1, 1) == profiles


def test_filter_rejects_bad_thresholds():
    with pytest.raises(DomainError):
        filter_profiles({}, 0, 1)
    with pytest.raises(DomainError):
        filter_profiles({}, 1, -2)


@given(
    st.dictionaries(
        st.sampled_from(["s1", "s2", "s3"]),
        st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 5)), max_size=30),
    ),
    st.integers(1, 3),
    st.integers(1, 4),
)
def test_filter_is_idempotent(spec, min_contexts, min_ratings):
    profiles = build_profiles(
        {
            seller: [Review(ctx, rate, "d", "t", "l") for ctx, rate in rows]
            for seller, rows in spec.items()
        }
    )
    once = filter_profiles(profiles, min_contexts, min_ratings)
    twice = filter_profiles(once, min_contexts, min_ratings)
    assert once == twice


@given(st.lists(st.integers(1, 5), min_size=1, max_size=40))
def test_aggregate_bounded_by_extremes(rates):
    profile = build_profiles({"s": make_reviews("ctx", rates)})["s"]
    aggregate = profile.aggregate("ctx")
    assert min(rates) <= aggregate <= max(rates)


# --- round trip --------------------------------------------------------------------

# CSV cannot carry NUL, and bare CR is swallowed by universal newlines.
review_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00"),
    max_size=30,
)
contexts = st.text(alphabet="ABCabc xyz", min_size=1, max_size=12).filter(
    lambda s: s.strip() and s == s.strip()
)


@given(
    st.lists(
        st.tuples(contexts, st.integers(1, 5), review_texts, review_texts, review_texts),
        max_size=20,
    )
)
def test_parse_serialize_round_trip(rows):
    reviews = [Review(c, r, d, t, l) for c, r, d, t, l in rows]
    text = reviews_to_csv(reviews)
    reparsed = parse_reviews(text)
    assert [(r.context, r.rate) for r in reparsed] == [(r.context, r.rate) for r in reviews]
    # And a second pass is byte-identical.
    assert reviews_to_csv(reparsed) == text


def test_review_fields_follow_the_header():
    # A Review is a row of the header's columns, in order, as reviews_to_csv writes it.
    assert Review._fields == tuple(name.lower() for name in REVIEW_HEADER)


def test_review_fields_cannot_be_assigned():
    review = make_reviews("Laptop", [4])[0]
    with pytest.raises(AttributeError):
        review.rate = 5
    assert review.rate == 4


def test_round_trip_bundled_file_bytes():
    reviews = load_reviews(DATA_DIR / "laptop_reviews.csv")
    text = reviews_to_csv(reviews)
    assert parse_reviews(text) == reviews
    assert (DATA_DIR / "laptop_reviews.csv").read_text(encoding="utf-8") == text
