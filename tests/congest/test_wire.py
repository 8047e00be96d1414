"""Unit tests for on-wire bit-size accounting and the typed wire schemas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import (
    WIRE_SCHEMAS,
    EdgeListSchema,
    FlagSchema,
    HashDescriptorSchema,
    IdListSchema,
    RoutedEdgeSchema,
    default_bit_size,
    edge_bits,
    id_bits,
    integer_bits,
    register_schema,
    schema_for,
)
from repro.congest.wire import (
    A1_SAMPLE_SCHEMA,
    A2_EDGE_SCHEMA,
    A3_IN_U_SCHEMA,
    A3_IN_X_SCHEMA,
    A3_NX_SCHEMA,
    A3_S_SCHEMA,
    A3_V_SCHEMA,
)
from repro.errors import SimulationError
from repro.hashing import KWiseIndependentFamily


class TestIdBits:
    def test_powers_of_two(self):
        assert id_bits(2) == 1
        assert id_bits(4) == 2
        assert id_bits(1024) == 10

    def test_non_powers(self):
        assert id_bits(3) == 2
        assert id_bits(100) == 7

    def test_single_node_network(self):
        assert id_bits(1) == 1

    def test_invalid(self):
        with pytest.raises(SimulationError):
            id_bits(0)

    def test_edge_bits(self):
        assert edge_bits(100) == 2 * id_bits(100)


class TestIntegerBits:
    def test_small_values(self):
        assert integer_bits(0) == 1
        assert integer_bits(1) == 1
        assert integer_bits(2) == 2
        assert integer_bits(255) == 8

    def test_negative_values_cost_sign_bit(self):
        assert integer_bits(-3) == integer_bits(3) + 1


class TestDefaultBitSize:
    def test_none_is_one_bit(self):
        assert default_bit_size(None, 100) == 1

    def test_bool_is_one_bit(self):
        assert default_bit_size(True, 100) == 1
        assert default_bit_size(False, 100) == 1

    def test_int_is_node_id(self):
        assert default_bit_size(42, 100) == id_bits(100)

    def test_tuple_sums_elements(self):
        assert default_bit_size((1, 2), 100) == 2 * id_bits(100)
        assert default_bit_size((1, 2, 3), 100) == 3 * id_bits(100)

    def test_string_tags_cost_eight_bits_per_character(self):
        assert default_bit_size("S", 100) == 8
        assert default_bit_size("", 100) == 1

    def test_tagged_tuple(self):
        assert default_bit_size(("S", 5), 100) == 8 + id_bits(100)

    def test_list_and_set(self):
        assert default_bit_size([1, 2, 3], 64) == 3 * id_bits(64)
        assert default_bit_size({1, 2}, 64) == 2 * id_bits(64)

    def test_hash_function_uses_encoded_bits(self):
        family = KWiseIndependentFamily(domain_size=64, range_size=4)
        function = family.sample()
        assert default_bit_size(function, 64) == function.encoded_bits()

    def test_unsupported_type_raises(self):
        with pytest.raises(SimulationError):
            default_bit_size(object(), 10)

    def test_empty_containers_are_floored_at_one_bit(self):
        # Regression: a zero-bit message would be free on the wire.  Like
        # ``None``, an empty container still occupies a message slot.
        assert default_bit_size((), 100) == 1
        assert default_bit_size([], 100) == 1
        assert default_bit_size(set(), 100) == 1
        assert default_bit_size(frozenset(), 100) == 1

    def test_tagged_empty_container_still_counts_the_tag(self):
        assert default_bit_size(("S", ()), 100) == 8 + 1


class TestSchemaRegistry:
    def test_known_kinds_resolve(self):
        for kind, schema in WIRE_SCHEMAS.items():
            assert schema_for(kind) is schema

    def test_unknown_kind_raises(self):
        with pytest.raises(SimulationError):
            schema_for("no-such-kind")

    def test_reregistering_same_object_is_idempotent(self):
        assert register_schema(A2_EDGE_SCHEMA) is A2_EDGE_SCHEMA

    def test_conflicting_registration_rejected(self):
        with pytest.raises(SimulationError):
            register_schema(IdListSchema("a2-edges"))

    def test_hash_descriptor_schema_rejects_bad_parameters(self):
        with pytest.raises(SimulationError, match="independence"):
            HashDescriptorSchema(0, 5)
        with pytest.raises(SimulationError, match="prime"):
            HashDescriptorSchema(2, 1)
        assert HashDescriptorSchema(2, 2).fixed_length == 2

    def test_protocol_schemas_registered(self):
        for schema in (
            A1_SAMPLE_SCHEMA,
            A2_EDGE_SCHEMA,
            A3_NX_SCHEMA,
            A3_S_SCHEMA,
            A3_V_SCHEMA,
            A3_IN_X_SCHEMA,
            A3_IN_U_SCHEMA,
        ):
            assert WIRE_SCHEMAS[schema.kind] is schema


#: One id-list schema stands in for all four (they differ only in kind).
_NUM_NODES = st.integers(min_value=2, max_value=2000)


class TestSchemaSizes:
    """Property tests: singleton batch sizes consistent with the scalar
    ``default_bit_size`` story."""

    @settings(deadline=None, max_examples=60)
    @given(
        num_nodes=_NUM_NODES,
        members=st.lists(st.integers(min_value=0, max_value=1999), max_size=30),
    )
    def test_id_list_size(self, num_nodes, members):
        size = int(A3_S_SCHEMA.bit_size([len(members)], num_nodes)[0])
        # The members are node identifiers, so the columnar accounting must
        # agree with the scalar default on the data content.
        assert size == default_bit_size(tuple(members), num_nodes)

    @settings(deadline=None, max_examples=60)
    @given(
        num_nodes=_NUM_NODES,
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=999),
                st.integers(min_value=1000, max_value=1999),
            ),
            max_size=20,
        ),
    )
    def test_edge_list_size(self, num_nodes, pairs):
        size = int(A2_EDGE_SCHEMA.bit_size([len(pairs)], num_nodes)[0])
        assert size == default_bit_size(tuple(pairs), num_nodes)

    @settings(deadline=None, max_examples=60)
    @given(num_nodes=_NUM_NODES, flag=st.booleans())
    def test_flag_size(self, num_nodes, flag):
        assert int(A3_IN_X_SCHEMA.bit_size([1], num_nodes)[0]) == default_bit_size(
            flag, num_nodes
        )

    @settings(deadline=None, max_examples=40)
    @given(
        num_nodes=st.integers(min_value=2, max_value=500),
        independence=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_hash_descriptor_size(self, num_nodes, independence, seed):
        family = KWiseIndependentFamily(
            domain_size=num_nodes, range_size=4, independence=independence
        )
        function = family.sample(np.random.default_rng(seed))
        schema = HashDescriptorSchema(family.independence, family.prime)
        # The columnar size of one descriptor is exactly the encoded size
        # the scalar path charges for the hash-function object.
        assert int(schema.bit_size([family.independence], num_nodes)[0]) == (
            default_bit_size(function, num_nodes)
        )
        assert int(
            schema.bit_size([family.independence], num_nodes)[0]
        ) == family.description_bits()

    @settings(deadline=None, max_examples=60)
    @given(
        num_nodes=_NUM_NODES,
        u=st.integers(min_value=0, max_value=999),
        v=st.integers(min_value=1000, max_value=1999),
    )
    def test_routed_edge_size(self, num_nodes, u, v):
        schema = RoutedEdgeSchema()
        assert int(schema.bit_size([1], num_nodes)[0]) == default_bit_size(
            (u, v), num_nodes
        )

    @settings(deadline=None, max_examples=30)
    @given(
        num_nodes=_NUM_NODES,
        lengths=st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=30
        ),
    )
    def test_vectorized_sizes_match_scalar_sizes(self, num_nodes, lengths):
        # A whole batch sized in one call equals per-message scalar sizing.
        batch = A3_NX_SCHEMA.bit_size(lengths, num_nodes)
        assert batch.dtype == np.int64
        for index, length in enumerate(lengths):
            expected = max(1, length * id_bits(num_nodes))
            assert int(batch[index]) == expected
